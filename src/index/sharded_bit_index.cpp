#include "index/sharded_bit_index.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "common/assertions.hpp"
#include "common/bitops.hpp"
#include "telemetry/json.hpp"

namespace amri::index {

namespace {

/// splitmix64 finaliser: the shard route must be a stable function of the
/// sharding attribute's value alone, independent of the BitMapper (which
/// reconfiguration retrains) so migrations never move tuples across shards.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

ShardedBitIndex::ShardedBitIndex(JoinAttributeSet jas, IndexConfig config,
                                 BitMapper mapper, std::size_t shards,
                                 std::size_t shard_pos, CostMeter* meter,
                                 MemoryTracker* memory)
    : jas_(std::move(jas)),
      config_(std::move(config)),
      shard_pos_(shard_pos),
      meter_(meter) {
  AMRI_CHECK(shards >= 1, "a sharded index needs at least one shard");
  AMRI_CHECK(shard_pos_ < jas_.size(),
             "sharding position outside the join attribute set");
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(jas_, config_, mapper, memory));
  }
}

std::size_t ShardedBitIndex::shard_of_value(Value v) const {
  if (shards_.size() == 1) return 0;
  return static_cast<std::size_t>(mix64(static_cast<std::uint64_t>(v)) %
                                  shards_.size());
}

std::size_t ShardedBitIndex::shard_of(const Tuple& t) const {
  return shard_of_value(t.at(jas_.tuple_attr(shard_pos_)));
}

std::size_t ShardedBitIndex::target_shard(const ProbeKey& key) const {
  if (!has_bit(key.mask, static_cast<unsigned>(shard_pos_))) {
    return shards_.size();
  }
  return shard_of_value(key.values[shard_pos_]);
}

std::uint64_t ShardedBitIndex::bound_indexed(AttrMask mask) const {
  std::uint64_t n = 0;
  for (std::size_t pos = 0; pos < config_.num_attrs(); ++pos) {
    if (config_.bits(pos) > 0 && has_bit(mask, static_cast<unsigned>(pos))) {
      ++n;
    }
  }
  return n;
}

void ShardedBitIndex::insert(const Tuple* t) {
  assert(t != nullptr);
  Shard& s = *shards_[shard_of(*t)];
  std::size_t shard_size = 0;
  {
    MutexLock lk(s.mu);
    s.index.insert(t);
    shard_size = s.index.size();
  }
  ++size_;
  // Same modelled cost as the unsharded index: one hash per indexed
  // attribute (bucket_of) plus the insert bookkeeping charge.
  if (meter_ != nullptr) {
    const std::uint64_t hashes = bound_indexed(jas_.universe());
    if (hashes > 0) meter_->charge_hash(hashes);
    meter_->charge_insert();
  }
  if (s.size_gauge != nullptr) {
    s.size_gauge->set(static_cast<double>(shard_size));
  }
}

void ShardedBitIndex::erase(const Tuple* t) {
  assert(t != nullptr);
  Shard& s = *shards_[shard_of(*t)];
  bool erased = false;
  std::size_t shard_size = 0;
  {
    MutexLock lk(s.mu);
    const std::size_t before = s.index.size();
    s.index.erase(t);
    shard_size = s.index.size();
    erased = shard_size < before;
  }
  // bucket_of hashes are charged whether or not the tuple was present;
  // the delete bookkeeping only when something was removed (both as in
  // BitAddressIndex::erase).
  if (meter_ != nullptr) {
    const std::uint64_t hashes = bound_indexed(jas_.universe());
    if (hashes > 0) meter_->charge_hash(hashes);
    if (erased) meter_->charge_delete();
  }
  if (erased) --size_;
  if (s.size_gauge != nullptr) {
    s.size_gauge->set(static_cast<double>(shard_size));
  }
}

void ShardedBitIndex::charge_probe(AttrMask mask, const ProbeStats& stats) {
  if (meter_ == nullptr) return;
  // Probe-side hashing is charged once: the coordinator computes the probe
  // layout (N_{A,ap} hashes) and every shard reuses it. Bucket visits and
  // comparisons are real per-shard work and sum.
  const std::uint64_t hashes = bound_indexed(mask);
  if (hashes > 0) meter_->charge_hash(hashes);
  if (stats.buckets_visited > 0) {
    meter_->charge_bucket_visit(stats.buckets_visited);
  }
  if (stats.tuples_compared > 0) {
    meter_->charge_compare(stats.tuples_compared);
  }
}

ProbeStats ShardedBitIndex::probe(const ProbeKey& key,
                                  std::vector<const Tuple*>& out) {
  ProbeStats total;
  const std::size_t target = target_shard(key);
  if (target < shards_.size()) {
    Shard& s = *shards_[target];
    MutexLock lk(s.mu);
    total = s.index.probe(key, out);
    if (fanout_hist_ != nullptr) fanout_hist_->observe(1.0);
  } else {
    const std::size_t n = shards_.size();
    // Trace-span fan-out timing: per-shard wall ns.
    const std::uint64_t span =
        telemetry_ != nullptr ? telemetry_->active_span() : 0;
    std::vector<std::uint64_t> shard_ns;
    if (span != 0) shard_ns.assign(n, 0);
    // Shard-id order, each shard's matches appended in its own probe order:
    // the merged list is deterministic.
    for (std::size_t i = 0; i < n; ++i) {
      // Span-gated wall timing of the per-shard fan-out: pure telemetry
      // (no cost-model input), and free unless this tuple carries a
      // trace span. amri-lint: allow(AMRI102)
      std::chrono::steady_clock::time_point t0{};
      if (span != 0) t0 = std::chrono::steady_clock::now();
      Shard& s = *shards_[i];
      MutexLock lk(s.mu);
      total += s.index.probe(key, out);
      if (span != 0) {
        shard_ns[i] = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
      }
    }
    if (fanout_hist_ != nullptr) {
      fanout_hist_->observe(static_cast<double>(n));
    }
    if (span != 0 && telemetry_ != nullptr) {
      telemetry::JsonWriter w;
      w.begin_object();
      w.field("span", span);
      w.field("stage", "fanout");
      w.field("wall_ns", telemetry_->wall_ns());
      w.field("width", static_cast<std::uint64_t>(n));
      w.begin_array("shard_ns");
      for (const std::uint64_t ns : shard_ns) w.value(ns);
      w.end_array();
      w.end_object();
      telemetry_->emit(telemetry::EventKind::kSpan, stream_id_,
                       std::move(w).take());
    }
  }
  charge_probe(key.mask, total);
  return total;
}

void ShardedBitIndex::probe_batch(const ProbeKey* keys, std::size_t n,
                                  std::vector<const Tuple*>* outs,
                                  ProbeStats* stats) {
  if (n == 0) return;
  const std::size_t num_shards = shards_.size();
  if (num_shards == 1) {
    // Everything lands on shard 0 (targeted or width-1 fan-out alike):
    // one lock, one grouped batch probe underneath.
    {
      Shard& s = *shards_[0];
      MutexLock lk(s.mu);
      s.index.probe_batch(keys, n, outs, stats);
    }
    for (std::size_t i = 0; i < n; ++i) {
      charge_probe(keys[i].mask, stats[i]);
      if (fanout_hist_ != nullptr) fanout_hist_->observe(1.0);
    }
    if (batch_fanout_hist_ != nullptr) batch_fanout_hist_->observe(1.0);
    return;
  }

  // Bucket the batch's keys by owning shard; keys that do not bind the
  // sharding attribute fan out to every shard.
  std::vector<std::size_t> owner(n);
  std::vector<std::vector<std::uint32_t>> mine(num_shards);
  std::vector<std::uint32_t> fanout;
  for (std::size_t i = 0; i < n; ++i) {
    owner[i] = target_shard(keys[i]);
    if (owner[i] < num_shards) {
      mine[owner[i]].push_back(static_cast<std::uint32_t>(i));
    } else {
      fanout.push_back(static_cast<std::uint32_t>(i));
    }
  }

  // One contiguous work list per shard: its targeted keys followed by every
  // fan-out key. Each shard answers its whole list under one hold of its
  // mutex; the shards are uncharged, so per-key stats come back exact and
  // the wrapper charges below.
  struct ShardWork {
    std::vector<ProbeKey> keys;
    std::vector<std::vector<const Tuple*>> parts;
    std::vector<ProbeStats> stats;
  };
  std::vector<ShardWork> work(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    ShardWork& w = work[s];
    w.keys.reserve(mine[s].size() + fanout.size());
    for (const std::uint32_t i : mine[s]) w.keys.push_back(keys[i]);
    for (const std::uint32_t i : fanout) w.keys.push_back(keys[i]);
    w.parts.resize(w.keys.size());
    w.stats.resize(w.keys.size());
  }
  const std::uint64_t span =
      telemetry_ != nullptr ? telemetry_->active_span() : 0;
  std::vector<std::uint64_t> shard_ns;
  if (span != 0) shard_ns.assign(num_shards, 0);
  for (std::size_t s = 0; s < num_shards; ++s) {
    ShardWork& w = work[s];
    if (w.keys.empty()) continue;
    // Span-gated wall timing of the batched fan-out: pure telemetry (no
    // cost-model input), free unless a trace span is active.
    // amri-lint: allow(AMRI102)
    std::chrono::steady_clock::time_point t0{};
    if (span != 0) t0 = std::chrono::steady_clock::now();
    Shard& sh = *shards_[s];
    MutexLock lk(sh.mu);
    sh.index.probe_batch(w.keys.data(), w.keys.size(), w.parts.data(),
                         w.stats.data());
    if (span != 0) {
      shard_ns[s] = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
    }
  }
  if (span != 0 && telemetry_ != nullptr) {
    std::uint64_t width = 0;
    for (const ShardWork& w : work) {
      if (!w.keys.empty()) ++width;
    }
    telemetry::JsonWriter w;
    w.begin_object();
    w.field("span", span);
    w.field("stage", "fanout");
    w.field("wall_ns", telemetry_->wall_ns());
    w.field("width", width);
    w.field("keys", static_cast<std::uint64_t>(n));
    w.field("fanout_keys", static_cast<std::uint64_t>(fanout.size()));
    w.begin_array("shard_ns");
    for (const std::uint64_t ns : shard_ns) w.value(ns);
    w.end_array();
    w.end_object();
    telemetry_->emit(telemetry::EventKind::kSpan, stream_id_,
                     std::move(w).take());
  }

  // Scatter targeted results back verbatim.
  for (std::size_t s = 0; s < num_shards; ++s) {
    ShardWork& w = work[s];
    for (std::size_t j = 0; j < mine[s].size(); ++j) {
      const std::uint32_t i = mine[s][j];
      outs[i].insert(outs[i].end(), w.parts[j].begin(), w.parts[j].end());
      stats[i] = w.stats[j];
    }
  }
  // Fan-out keys merge deterministically in shard-id order, each shard's
  // matches in its own probe order (the same order probe() produces).
  for (std::size_t f = 0; f < fanout.size(); ++f) {
    const std::uint32_t i = fanout[f];
    stats[i] = ProbeStats{};
    for (std::size_t s = 0; s < num_shards; ++s) {
      ShardWork& w = work[s];
      const std::size_t slot = mine[s].size() + f;
      outs[i].insert(outs[i].end(), w.parts[slot].begin(),
                     w.parts[slot].end());
      stats[i] += w.stats[slot];
    }
  }

  // Charges and per-key fan-out telemetry in batch order (cost parity with
  // n single probes); the batch histogram records how many shards this one
  // call dispatched to.
  for (std::size_t i = 0; i < n; ++i) {
    charge_probe(keys[i].mask, stats[i]);
    if (fanout_hist_ != nullptr) {
      fanout_hist_->observe(owner[i] < num_shards
                                ? 1.0
                                : static_cast<double>(num_shards));
    }
  }
  if (batch_fanout_hist_ != nullptr) {
    std::size_t width = 0;
    for (const ShardWork& w : work) {
      if (!w.keys.empty()) ++width;
    }
    batch_fanout_hist_->observe(static_cast<double>(width));
  }
}

ShardMigrationReport ShardedBitIndex::migrate_shards(
    const IndexConfig& target, const IndexMigrator& migrator) {
  ShardMigrationReport report;
  if (target == config_) return report;
  for (auto& sp : shards_) {
    Shard& s = *sp;
    MigrationReport r;
    {
      // Only this shard pauses; probes of the other shards proceed.
      MutexLock lk(s.mu);
      r = migrator.migrate(s.index, target);
    }
    report.tuples_moved += r.tuples_moved;
    report.hashes_charged += r.hashes_charged;
    report.max_shard_hashes =
        std::max(report.max_shard_hashes, r.hashes_charged);
    if (shard_migration_hist_ != nullptr) {
      shard_migration_hist_->observe(static_cast<double>(r.hashes_charged));
    }
  }
  config_ = target;
  if (meter_ != nullptr && report.hashes_charged > 0) {
    meter_->charge_hash(report.hashes_charged);
  }
  balance();  // refresh the imbalance gauge after the rebuild
  return report;
}

std::size_t ShardedBitIndex::memory_bytes() const {
  std::size_t total = 0;
  for (const auto& sp : shards_) {
    MutexLock lk(sp->mu);
    total += sp->index.memory_bytes();
  }
  return total;
}

std::string ShardedBitIndex::name() const {
  return "bit_address" + config_.to_string() + "x" +
         std::to_string(shards_.size());
}

void ShardedBitIndex::clear() {
  for (auto& sp : shards_) {
    MutexLock lk(sp->mu);
    sp->index.clear();
    if (sp->size_gauge != nullptr) sp->size_gauge->set(0.0);
  }
  size_ = 0;
}

ShardBalance ShardedBitIndex::balance() const {
  ShardBalance b;
  b.sizes.reserve(shards_.size());
  std::size_t total = 0;
  for (const auto& sp : shards_) {
    MutexLock lk(sp->mu);
    b.sizes.push_back(sp->index.size());
  }
  for (const std::size_t s : b.sizes) {
    total += s;
    b.max = std::max(b.max, s);
  }
  b.mean = b.sizes.empty()
               ? 0.0
               : static_cast<double>(total) /
                     static_cast<double>(b.sizes.size());
  b.imbalance = b.mean > 0.0
                    ? static_cast<double>(b.max) / b.mean
                    : 0.0;
  if (imbalance_gauge_ != nullptr) imbalance_gauge_->set(b.imbalance);
  return b;
}

void ShardedBitIndex::bind_telemetry(telemetry::Telemetry* telemetry,
                                     const std::string& prefix,
                                     StreamId stream) {
  telemetry_ = telemetry;
  stream_id_ = stream;
  if (telemetry == nullptr) {
    for (auto& sp : shards_) sp->size_gauge = nullptr;
    imbalance_gauge_ = nullptr;
    fanout_hist_ = nullptr;
    batch_fanout_hist_ = nullptr;
    shard_migration_hist_ = nullptr;
    return;
  }
  auto& reg = telemetry->metrics();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->size_gauge =
        &reg.gauge(prefix + ".shard." + std::to_string(i) + ".size");
  }
  imbalance_gauge_ = &reg.gauge(prefix + ".shard.imbalance");
  fanout_hist_ =
      &reg.histogram(prefix + ".probe.fanout_shards",
                     telemetry::Histogram::exponential_bounds(1.0, 2.0, 8));
  batch_fanout_hist_ =
      &reg.histogram(prefix + ".probe.batch.fanout_width",
                     telemetry::Histogram::exponential_bounds(1.0, 2.0, 8));
  shard_migration_hist_ =
      &reg.histogram(prefix + ".migration.shard_hashes",
                     telemetry::Histogram::exponential_bounds(1.0, 4.0, 16));
}

void ShardedBitIndex::check_invariants() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& s = *shards_[i];
    MutexLock lk(s.mu);
    s.index.check_invariants();
    AMRI_CHECK(s.index.config() == config_,
               "shard drifted away from the shared index configuration");
    total += s.index.size();
    s.index.for_each_tuple([&](const Tuple* t) {
      AMRI_CHECK(shard_of(*t) == i, "tuple stored in a foreign shard");
    });
  }
  AMRI_CHECK(total == size_,
             "shard sizes disagree with the aggregate tuple count");
}

}  // namespace amri::index
