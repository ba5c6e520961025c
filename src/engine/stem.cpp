#include "engine/stem.hpp"

#include <cassert>
#include <string>
#include <utility>

#include "common/assertions.hpp"
#include "index/access_pattern.hpp"

namespace amri::engine {

StemOperator::StemOperator(StreamId stream, const StateLayout& layout,
                           TimeMicros window, StemOptions options,
                           index::CostModel model, CostMeter* meter,
                           MemoryTracker* memory,
                           telemetry::Telemetry* telemetry,
                           std::size_t queries)
    : stream_(stream),
      layout_(layout),
      window_(window),
      options_(std::move(options)),
      meter_(meter),
      memory_(memory),
      telemetry_(telemetry) {
  const std::size_t n = layout_.jas.size();
  switch (options_.backend) {
    case IndexBackend::kAmri:
    case IndexBackend::kStaticBitmap: {
      index::IndexConfig ic = options_.initial_config;
      if (ic.num_attrs() != n) {
        std::vector<std::uint8_t> bits(n, 0);
        for (int b = 0; n > 0 && b < ic.total_bits(); ++b) {
          ++bits[static_cast<std::size_t>(b) % n];
        }
        ic = index::IndexConfig(std::move(bits));
      }
      if (options_.shards > 1) {
        auto idx = std::make_unique<index::ShardedBitIndex>(
            layout_.jas, std::move(ic), options_.shards, 0, meter_, memory_);
        sharded_index_ = idx.get();
        index_ = std::move(idx);
        if (telemetry_ != nullptr) {
          sharded_index_->bind_telemetry(
              telemetry_, "stem." + std::to_string(stream_) + ".index",
              stream_);
        }
      } else {
        auto idx = std::make_unique<index::BitAddressIndex>(
            layout_.jas, std::move(ic), meter_, memory_);
        bit_index_ = idx.get();
        index_ = std::move(idx);
        if (telemetry_ != nullptr) {
          bit_index_->bind_telemetry(
              telemetry_, "stem." + std::to_string(stream_) + ".index");
        }
      }
      // Static backends also carry a tuner so the warm-up phase can train
      // their starting configuration; finish_warmup() drops it.
      amri_tuner_ = std::make_unique<tuner::AmriTuner>(
          layout_.jas.universe(), n, model,
          options_.amri_tuner.value_or(tuner::TunerOptions{}), memory_,
          telemetry_, stream_, queries, shard_count());
      continuous_tuning_ = options_.backend == IndexBackend::kAmri;
      break;
    }
    case IndexBackend::kAccessModules:
    case IndexBackend::kStaticModules: {
      auto idx = std::make_unique<index::AccessModuleSet>(
          layout_.jas, options_.initial_modules, meter_, memory_);
      module_index_ = idx.get();
      index_ = std::move(idx);
      {
        tuner::HashTunerOptions topts =
            options_.module_tuner.value_or(tuner::HashTunerOptions{});
        module_tuner_ = std::make_unique<tuner::HashModuleTuner>(
            layout_.jas.universe(), topts, memory_);
      }
      continuous_tuning_ = options_.backend == IndexBackend::kAccessModules;
      break;
    }
    case IndexBackend::kScan:
      index_ = std::make_unique<index::ScanIndex>(layout_.jas, meter_, memory_);
      break;
  }
  if (telemetry_ != nullptr) {
    const std::string prefix = "stem." + std::to_string(stream_);
    auto& reg = telemetry_->metrics();
    profiler_ = telemetry_->profiler();
    probe_counter_ = &reg.counter(prefix + ".probe.count");
    probe_cost_hist_ = &reg.histogram(
        prefix + ".probe.cost_us",
        telemetry::Histogram::exponential_bounds(0.05, 2.0, 16));
  }
}

StemOperator::~StemOperator() {
  if (memory_ != nullptr && tracked_tuple_bytes_ > 0) {
    memory_->release(MemCategory::kStateTuples, tracked_tuple_bytes_);
  }
}

void StemOperator::sync_tuple_memory() {
  if (memory_ == nullptr) return;
  // deque of tuples: payload plus modest container overhead per element.
  const std::size_t now = window_store_.size() * (sizeof(Tuple) + 8);
  if (now > tracked_tuple_bytes_) {
    memory_->allocate(MemCategory::kStateTuples, now - tracked_tuple_bytes_);
  } else if (now < tracked_tuple_bytes_) {
    memory_->release(MemCategory::kStateTuples, tracked_tuple_bytes_ - now);
  }
  tracked_tuple_bytes_ = now;
}

const Tuple* StemOperator::insert(const Tuple& t) {
  window_store_.push_back(t);
  index_->insert(&window_store_.back());
  sync_tuple_memory();
  return &window_store_.back();
}

void StemOperator::insert_batch(const Tuple* arrivals, std::size_t n,
                                std::vector<const Tuple*>& stored) {
  stored.reserve(stored.size() + n);
  const std::size_t first = stored.size();
  for (std::size_t i = 0; i < n; ++i) {
    // deque::push_back never invalidates references to earlier elements,
    // so each stored pointer is stable for the rest of the batch.
    window_store_.push_back(arrivals[i]);
    stored.push_back(&window_store_.back());
  }
  if (bit_index_ != nullptr) {
    // Batched kernel: equivalent to per-tuple insert(), one memory sync.
    bit_index_->insert_batch(stored.data() + first, n);
  } else {
    for (std::size_t i = 0; i < n; ++i) index_->insert(stored[first + i]);
  }
  sync_tuple_memory();
}

void StemOperator::expire(TimeMicros now) {
  const TimeMicros horizon = now - window_;
  if (bit_index_ != nullptr) {
    // The expiring run is the window's ts-ordered prefix; the batched
    // erase takes it in one call with one memory sync.
    expiry_scratch_.clear();
    for (const Tuple& t : window_store_) {
      if (t.ts >= horizon) break;
      expiry_scratch_.push_back(&t);
    }
    if (!expiry_scratch_.empty()) {
      bit_index_->erase_batch(expiry_scratch_.data(), expiry_scratch_.size());
      for (std::size_t i = 0; i < expiry_scratch_.size(); ++i) {
        window_store_.pop_front();
      }
    }
  } else {
    while (!window_store_.empty() && window_store_.front().ts < horizon) {
      index_->erase(&window_store_.front());
      window_store_.pop_front();
    }
  }
  sync_tuple_memory();
  AMRI_CHECK_INVARIANTS(*this);
}

void StemOperator::check_invariants() const {
  for (std::size_t i = 1; i < window_store_.size(); ++i) {
    AMRI_CHECK(window_store_[i - 1].ts <= window_store_[i].ts,
               "window store timestamps must be non-decreasing");
  }
  AMRI_CHECK(index_->size() == window_store_.size(),
             "physical index size disagrees with the window store");
  AMRI_CHECK(memory_ == nullptr ||
                 tracked_tuple_bytes_ ==
                     window_store_.size() * (sizeof(Tuple) + 8),
             "tuple memory accounting is stale");
  if (bit_index_ != nullptr) bit_index_->check_invariants();
  if (sharded_index_ != nullptr) sharded_index_->check_invariants();
}

telemetry::Histogram* StemOperator::pattern_histogram(AttrMask mask) {
  assert(telemetry_ != nullptr);  // only reached from telemetry-guarded code
  const auto it = pattern_hists_.find(mask);
  if (it != pattern_hists_.end()) return it->second;
  const std::string name =
      "stem." + std::to_string(stream_) + ".ap." +
      index::pattern_to_string(mask, layout_.jas.size()) + ".probe_us";
  // Lazy by necessity: the set of access patterns is only known once
  // probes arrive; the per-mask cache above keeps repeat lookups out of
  // the registry.
  auto* hist = &telemetry_->metrics().histogram(  // amri-lint: allow(AMRI006)
      name, telemetry::Histogram::exponential_bounds(0.05, 2.0, 16));
  pattern_hists_.emplace(mask, hist);
  return hist;
}

index::ProbeStats StemOperator::probe(const index::ProbeKey& key,
                                      std::vector<const Tuple*>& out,
                                      std::size_t query) {
  ++probes_;
  const double charged_before =
      (telemetry_ != nullptr && meter_ != nullptr) ? meter_->charged_us() : 0.0;
  index::ProbeStats stats;
  {
    telemetry::ScopedPhase probe_scope(profiler_, telemetry::Phase::kProbe);
    stats = index_->probe(key, out);
  }
  if (telemetry_ != nullptr) {
    probe_counter_->add();
    if (meter_ != nullptr) {
      const double cost = meter_->charged_us() - charged_before;
      probe_cost_hist_->observe(cost);
      pattern_histogram(key.mask)->observe(cost);
      // Feed the tuner's realized-cost accumulator before any decision
      // below closes the epoch.
      if (amri_tuner_ != nullptr) amri_tuner_->note_probe_cost(cost);
    }
  }
  if (amri_tuner_ != nullptr) {
    // Assess in the target shard's cell, or the next one in the
    // deterministic round-robin for a fan-out probe.
    std::size_t shard = 0;
    if (sharded_index_ != nullptr) {
      const std::size_t shards = sharded_index_->shard_count();
      const std::size_t target = sharded_index_->target_shard(key);
      shard = target < shards ? target : fanout_rr_++ % shards;
    }
    amri_tuner_->observe_request(key.mask, query, shard);
    if (continuous_tuning_ && amri_tuner_->tuning_due()) force_tune();
  } else if (module_tuner_ != nullptr) {
    module_tuner_->observe_request(key.mask);
    if (continuous_tuning_ && module_tuner_->tuning_due()) force_tune();
  }
  return stats;
}

const index::IndexConfig* StemOperator::current_config() const {
  if (sharded_index_ != nullptr) return &sharded_index_->config();
  return bit_index_ != nullptr ? &bit_index_->config() : nullptr;
}

std::uint64_t StemOperator::migrations() const {
  return warmup_migrations_ +
         (amri_tuner_ != nullptr   ? amri_tuner_->migrations()
          : module_tuner_ != nullptr ? module_tuner_->retunes()
                                     : 0);
}

double StemOperator::migration_pause_us() const {
  return warmup_pause_us_ +
         (amri_tuner_ != nullptr ? amri_tuner_->migration_pause_us() : 0.0);
}

std::uint64_t StemOperator::suppressed() const {
  return warmup_suppressed_ +
         (amri_tuner_ != nullptr ? amri_tuner_->suppressed() : 0);
}

void StemOperator::force_tune() {
  telemetry::ScopedPhase tune_scope(profiler_, telemetry::Phase::kTunerEpoch);
  if (amri_tuner_ != nullptr && sharded_index_ != nullptr) {
    amri_tuner_->maybe_tune(*sharded_index_);
  } else if (amri_tuner_ != nullptr) {
    amri_tuner_->maybe_tune(*bit_index_);
  } else if (module_tuner_ != nullptr) {
    module_tuner_->maybe_tune(*module_index_);
  }
}

void StemOperator::finish_warmup() {
  force_tune();
  if (!continuous_tuning_) {
    // The non-adapting baselines keep the trained configuration forever.
    if (amri_tuner_ != nullptr) {
      warmup_migrations_ = amri_tuner_->migrations();
      warmup_suppressed_ = amri_tuner_->suppressed();
      warmup_pause_us_ = amri_tuner_->migration_pause_us();
    }
    if (module_tuner_ != nullptr) warmup_migrations_ = module_tuner_->retunes();
    amri_tuner_.reset();
    module_tuner_.reset();
  }
}

}  // namespace amri::engine
