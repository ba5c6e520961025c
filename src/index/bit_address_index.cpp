#include "index/bit_address_index.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

#include "common/assertions.hpp"

namespace amri::index {

BitAddressIndex::BitAddressIndex(JoinAttributeSet jas, IndexConfig config,
                                 CostMeter* meter, MemoryTracker* memory)
    : jas_(std::move(jas)),
      config_(std::move(config)),
      meter_(meter),
      memory_(memory),
      sig_width_(
          64 / static_cast<int>(std::max<std::size_t>(jas_.size(), 1))) {
  assert(config_.num_attrs() == jas_.size());
  assert(jas_.size() <= 32);
}

BitAddressIndex::~BitAddressIndex() {
  if (memory_ != nullptr && tracked_bytes_ > 0) {
    memory_->release(MemCategory::kIndexStructure, tracked_bytes_);
  }
}

void BitAddressIndex::bind_telemetry(telemetry::Telemetry* telemetry,
                                     const std::string& prefix) {
  telemetry_ = telemetry;
  if (telemetry_ == nullptr) {
    wildcard_hist_ = chain_hist_ = nullptr;
    probes_enumerated_ = probes_filtered_ = nullptr;
    imbalance_gauge_ = nullptr;
    return;
  }
  auto& reg = telemetry_->metrics();
  wildcard_hist_ =
      &reg.histogram(prefix + ".probe.wildcard_buckets",
                     telemetry::Histogram::exponential_bounds(1.0, 2.0, 14));
  chain_hist_ =
      &reg.histogram(prefix + ".bucket.chain_len",
                     telemetry::Histogram::exponential_bounds(1.0, 2.0, 12));
  probes_enumerated_ = &reg.counter(prefix + ".probe.enumerated");
  probes_filtered_ = &reg.counter(prefix + ".probe.filtered");
  imbalance_gauge_ = &reg.gauge(prefix + ".occupancy.imbalance");
}

BucketId BitAddressIndex::bucket_of_uncharged(const Tuple& t) const {
  BucketId id = 0;
  for (std::size_t pos = 0; pos < config_.num_attrs(); ++pos) {
    const int bits = config_.bits(pos);
    if (bits == 0) continue;
    id |= value_bits(pos, t.at(jas_.tuple_attr(pos)), bits)
          << config_.shift_of(pos);
  }
  return id;
}

BucketId BitAddressIndex::bucket_of(const Tuple& t) {
  BucketId id = 0;
  for (std::size_t pos = 0; pos < config_.num_attrs(); ++pos) {
    const int bits = config_.bits(pos);
    if (bits == 0) continue;
    const std::uint64_t chunk =
        value_bits(pos, t.at(jas_.tuple_attr(pos)), bits);
    id |= chunk << config_.shift_of(pos);
    if (meter_ != nullptr) meter_->charge_hash();
  }
  return id;
}

std::uint64_t BitAddressIndex::value_chunk(std::size_t pos, Value v) const {
  // mix64 is a bijection, so a one-position JAS (all 64 bits) filters
  // exactly.
  return (mix64(static_cast<std::uint64_t>(v)) >> (64 - sig_width_))
         << (pos * static_cast<std::size_t>(sig_width_));
}

std::uint64_t BitAddressIndex::tuple_tag(const Tuple& t) const {
  std::uint64_t tag = 0;
  for (std::size_t pos = 0; pos < jas_.size(); ++pos) {
    tag |= value_chunk(pos, t.at(jas_.tuple_attr(pos)));
  }
  return tag;
}

void BitAddressIndex::sync_memory() {
  const std::size_t now = memory_bytes();
  if (memory_ != nullptr) {
    if (now > tracked_bytes_) {
      memory_->allocate(MemCategory::kIndexStructure, now - tracked_bytes_);
    } else if (now < tracked_bytes_) {
      memory_->release(MemCategory::kIndexStructure, tracked_bytes_ - now);
    }
  }
  tracked_bytes_ = now;
}

void BitAddressIndex::insert(const Tuple* t) {
  assert(t != nullptr);
  const BucketId id = bucket_of(*t);
  const std::size_t chain = buckets_.insert(id, t, tuple_tag(*t));
  ++size_;
  if (chain_hist_ != nullptr) {
    chain_hist_->observe(static_cast<double>(chain));
  }
  if (meter_ != nullptr) meter_->charge_insert();
  sync_memory();
}

void BitAddressIndex::erase(const Tuple* t) {
  assert(t != nullptr);
  const BucketId id = bucket_of(*t);
  if (!buckets_.erase(id, t)) return;
  --size_;
  if (meter_ != nullptr) meter_->charge_delete();
  sync_memory();
}

void BitAddressIndex::insert_batch(const Tuple* const* tuples,
                                   std::size_t n) {
  // Bucket ids are computed uncharged (value_bits is pure); the batch's
  // hashes and inserts are charged once below.
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t chain = buckets_.insert(
        bucket_of_uncharged(*tuples[i]), tuples[i], tuple_tag(*tuples[i]));
    if (chain_hist_ != nullptr) {
      chain_hist_->observe(static_cast<double>(chain));
    }
  }
  size_ += n;
  if (meter_ != nullptr) {
    meter_->charge_hash(n * static_cast<std::uint64_t>(
                                config_.indexed_attr_count()));
    meter_->charge_insert(n);
  }
  sync_memory();
}

void BitAddressIndex::erase_batch(const Tuple* const* tuples, std::size_t n) {
  std::size_t erased = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (buckets_.erase(bucket_of_uncharged(*tuples[i]), tuples[i])) ++erased;
  }
  size_ -= erased;
  // bucket_of hashes are charged for every tuple, present or not; the
  // delete bookkeeping only for those removed (both as in erase()).
  if (meter_ != nullptr) {
    meter_->charge_hash(n * static_cast<std::uint64_t>(
                                config_.indexed_attr_count()));
    meter_->charge_delete(erased);
  }
  sync_memory();
}

BitAddressIndex::ProbeLayout BitAddressIndex::layout_for(const ProbeKey& key) {
  ProbeLayout layout;
  for (std::size_t pos = 0; pos < config_.num_attrs(); ++pos) {
    const int bits = config_.bits(pos);
    if (bits == 0) continue;
    if (has_bit(key.mask, static_cast<unsigned>(pos))) {
      const std::uint64_t chunk = value_bits(pos, key.values[pos], bits);
      layout.fixed |= chunk << config_.shift_of(pos);
      layout.fixed_mask |= low_bits64(bits) << config_.shift_of(pos);
      if (meter_ != nullptr) meter_->charge_hash();  // N_{A,ap} · C_h
    } else {
      layout.wildcard_bits += bits;
    }
  }
  // The signature chunks of every bound position, indexed or not.
  const std::uint64_t chunk_mask = low_bits64(sig_width_);
  for_each_bit(key.mask, [&](unsigned pos) {
    layout.sig |= value_chunk(pos, key.values[pos]);
    layout.sig_mask |= chunk_mask << (pos * static_cast<unsigned>(sig_width_));
  });
  return layout;
}

ProbeStats BitAddressIndex::probe(const ProbeKey& key,
                                  std::vector<const Tuple*>& out) {
  ProbeStats stats;
  const ProbeLayout layout = layout_for(key);

  // A one-position JAS keeps all 64 bits of mix64(value), a bijection, so
  // there a signature match is a value match and the probe ends in bucket
  // memory; a wider JAS truncates each chunk and verifies on the tuple.
  const bool exact = sig_width_ == 64;

  // The one bucket scan of every strategy. It counts the visit and the
  // modelled comparison of every entry (Eq. 1's C_c per stored tuple),
  // then rejects entries whose signature disagrees with a bound value in
  // bucket memory and, unless the signature is exact, verifies the rest on
  // the tuple. A null bucket is an enumerated id with nothing stored: a
  // visit alone.
  const auto scan = [&](const Bucket* bucket) {
    ++stats.buckets_visited;
    if (bucket == nullptr) return;
    stats.tuples_compared += bucket->size();
    for (const BucketEntry& e : *bucket) {
      if ((e.tag & layout.sig_mask) != layout.sig) continue;
      if (exact) {
        AMRI_ASSERT(key.matches(*e.tuple, jas_),
                    "a one-position signature matched a different value");
      } else if (!key.matches(*e.tuple, jas_)) {
        continue;
      }
      out.push_back(e.tuple);
      ++stats.matches;
    }
  };

  const std::uint64_t enum_count = pow2_saturating(layout.wildcard_bits);
  if (wildcard_hist_ != nullptr) {
    wildcard_hist_->observe(static_cast<double>(enum_count));
    (enum_count <= buckets_.size() ? probes_enumerated_ : probes_filtered_)
        ->add();
  }
  if (layout.wildcard_bits == 0 || enum_count <= buckets_.size()) {
    // Enumerate the 2^wildcard_bits bucket ids in ascending order by
    // stepping through the subsets of the free (unfixed) bits; a fully
    // bound probe has no free bits and visits exactly one bucket.
    const BucketId free =
        low_bits64(config_.total_bits()) & ~layout.fixed_mask;
    assert(std::popcount(free) == layout.wildcard_bits);
    BucketId sub = 0;
    do {
      scan(buckets_.find(layout.fixed | sub));
      sub = (sub - free) & free;
    } while (sub != 0);
  } else {
    // Cheaper to filter the flat directory by the fixed bits.
    buckets_.for_each([&](BucketId id, const Bucket& bucket) {
      if ((id & layout.fixed_mask) == layout.fixed) scan(&bucket);
    });
  }
  // The counted work, charged once: the meter is integer, so this equals
  // charging each visit and comparison as it happens.
  if (meter_ != nullptr) {
    meter_->charge_bucket_visit(stats.buckets_visited);
    meter_->charge_compare(stats.tuples_compared);
  }
  return stats;
}

BitAddressIndex::OccupancyStats BitAddressIndex::occupancy() const {
  OccupancyStats stats;
  stats.occupied = buckets_.size();
  stats.tuples = size_;
  if (buckets_.empty()) return stats;
  stats.min = SIZE_MAX;
  double sum = 0.0;
  double sum_sq = 0.0;
  buckets_.for_each([&](BucketId, const Bucket& bucket) {
    const std::size_t n = bucket.size();
    stats.min = std::min(stats.min, n);
    stats.max = std::max(stats.max, n);
    sum += static_cast<double>(n);
    sum_sq += static_cast<double>(n) * static_cast<double>(n);
  });
  const auto k = static_cast<double>(buckets_.size());
  stats.mean = sum / k;
  const double var = sum_sq / k - stats.mean * stats.mean;
  stats.stddev = var > 0.0 ? std::sqrt(var) : 0.0;
  stats.imbalance =
      stats.mean > 0.0 ? static_cast<double>(stats.max) / stats.mean : 0.0;
  return stats;
}

void BitAddressIndex::refresh_occupancy_gauge() {
  if (imbalance_gauge_ != nullptr) {
    imbalance_gauge_->set(occupancy().imbalance);
  }
}

std::size_t BitAddressIndex::memory_bytes() const {
  // Capacity-aware: the directory's whole slot array (empty slots are real
  // memory) plus heap-spilled bucket storage. Inline tuple pointers live
  // inside the slots, so nothing is counted twice.
  return buckets_.memory_bytes();
}

std::string BitAddressIndex::name() const {
  return "bit_address" + config_.to_string();
}

void BitAddressIndex::check_invariants() const {
  buckets_.check_invariants();
  const BucketId id_mask = low_bits64(config_.total_bits());
  std::size_t tuples = 0;
  buckets_.for_each([&](BucketId id, const Bucket& bucket) {
    AMRI_CHECK(!bucket.empty(),
               "sparse directory must not retain empty buckets");
    AMRI_CHECK((id & ~id_mask) == 0,
               "bucket id uses bits outside the IC's total_bits");
    tuples += bucket.size();
    for (const BucketEntry& e : bucket) {
      AMRI_CHECK(e.tuple != nullptr, "stored tuple pointer is null");
      AMRI_CHECK(bucket_of_uncharged(*e.tuple) == id,
                 "stored tuple does not rehash to its bucket under the "
                 "current IC (missed relocation during migration?)");
      AMRI_CHECK(e.tag == tuple_tag(*e.tuple),
                 "stored value signature disagrees with a recomputation over "
                 "the tuple's JAS values");
    }
  });
  AMRI_CHECK(tuples == size_,
             "size_ disagrees with the sum of bucket sizes");
  AMRI_CHECK(memory_ == nullptr || tracked_bytes_ == memory_bytes(),
             "memory-tracker bookkeeping is stale");
}

void BitAddressIndex::reconfigure(const IndexConfig& new_config) {
  assert(new_config.num_attrs() == jas_.size());
  // Signatures depend on the tuples' JAS values, not the IC, so they
  // survive the reconfiguration verbatim — collect entries, not bare tuple
  // pointers.
  std::vector<BucketEntry> all;
  all.reserve(size_);
  buckets_.for_each([&](BucketId, const Bucket& bucket) {
    for (const BucketEntry& e : bucket) all.push_back(e);
  });
  buckets_.clear();
  config_ = new_config;
  for (const BucketEntry& e : all) {
    buckets_.insert(bucket_of_uncharged(*e.tuple), e.tuple, e.tag);
  }
  // N_A(new) hashes per relocated tuple, charged once.
  if (meter_ != nullptr) {
    meter_->charge_hash(size_ * static_cast<std::uint64_t>(
                                    config_.indexed_attr_count()));
  }
  sync_memory();
  refresh_occupancy_gauge();
  AMRI_CHECK_INVARIANTS(*this);
}

}  // namespace amri::index
