#include "index/bit_address_index.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_map>

#include "common/assertions.hpp"

namespace amri::index {

BitAddressIndex::BitAddressIndex(JoinAttributeSet jas, IndexConfig config,
                                 BitMapper mapper, CostMeter* meter,
                                 MemoryTracker* memory)
    : jas_(std::move(jas)),
      config_(std::move(config)),
      mapper_(std::move(mapper)),
      meter_(meter),
      memory_(memory) {
  assert(config_.num_attrs() == jas_.size());
  assert(mapper_.num_attrs() == jas_.size());
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
    id |= mapper_.map(pos, t.at(jas_.tuple_attr(pos)), bits)
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
        mapper_.map(pos, t.at(jas_.tuple_attr(pos)), bits);
    id |= chunk << config_.shift_of(pos);
    if (meter_ != nullptr) meter_->charge_hash();
  }
  return id;
}

std::uint64_t BitAddressIndex::tuple_tag(const Tuple& t) const {
  // FNV-1a over the tuple's JAS values in position order. Must stay in
  // lockstep with key_tag(): a fully bound probe key's tag equals the tag
  // of every tuple it can match.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t pos = 0; pos < jas_.size(); ++pos) {
    h ^= static_cast<std::uint64_t>(t.at(jas_.tuple_attr(pos)));
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t BitAddressIndex::key_tag(const ProbeKey& key) const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t pos = 0; pos < jas_.size(); ++pos) {
    h ^= static_cast<std::uint64_t>(key.values[pos]);
    h *= 0x100000001b3ULL;
  }
  return h;
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
  // Bucket ids are computed uncharged (the mapper is pure — the bulk_load()
  // precedent) and the per-tuple loop replays insert()'s hash charges in
  // its exact order; the charge count per tuple is computed once.
  const int hash_charges = indexed_attr_count();
  for (std::size_t i = 0; i < n; ++i) {
    if (meter_ != nullptr) {
      for (int h = 0; h < hash_charges; ++h) meter_->charge_hash();
    }
    const std::size_t chain = buckets_.insert(
        bucket_of_uncharged(*tuples[i]), tuples[i], tuple_tag(*tuples[i]));
    ++size_;
    if (chain_hist_ != nullptr) {
      chain_hist_->observe(static_cast<double>(chain));
    }
    if (meter_ != nullptr) meter_->charge_insert();
  }
  sync_memory();
}

void BitAddressIndex::erase_batch(const Tuple* const* tuples, std::size_t n) {
  const int hash_charges = indexed_attr_count();
  for (std::size_t i = 0; i < n; ++i) {
    if (meter_ != nullptr) {
      for (int h = 0; h < hash_charges; ++h) meter_->charge_hash();
    }
    if (!buckets_.erase(bucket_of_uncharged(*tuples[i]), tuples[i])) continue;
    --size_;
    if (meter_ != nullptr) meter_->charge_delete();
  }
  sync_memory();
}

int BitAddressIndex::indexed_attr_count() const {
  int c = 0;
  for (std::size_t pos = 0; pos < config_.num_attrs(); ++pos) {
    if (config_.bits(pos) != 0) ++c;
  }
  return c;
}

BitAddressIndex::ProbeLayout BitAddressIndex::layout_for(const ProbeKey& key) {
  ProbeLayout layout;
  for (std::size_t pos = 0; pos < config_.num_attrs(); ++pos) {
    const int bits = config_.bits(pos);
    if (bits == 0) continue;
    if (has_bit(key.mask, static_cast<unsigned>(pos))) {
      const std::uint64_t chunk = mapper_.map(pos, key.values[pos], bits);
      layout.fixed |= chunk << config_.shift_of(pos);
      layout.fixed_mask |= low_bits64(bits) << config_.shift_of(pos);
      if (meter_ != nullptr) meter_->charge_hash();  // N_{A,ap} · C_h
    } else {
      layout.wildcard_bits += bits;
    }
  }
  return layout;
}

ProbeStats BitAddressIndex::probe(const ProbeKey& key,
                                  std::vector<const Tuple*>& out) {
  ProbeStats stats;
  const ProbeLayout layout = layout_for(key);

  auto scan_bucket = [&](const Bucket& bucket) {
    for (const BucketEntry& e : bucket) {
      ++stats.tuples_compared;
      if (meter_ != nullptr) meter_->charge_compare();
      if (key.matches(*e.tuple, jas_)) {
        out.push_back(e.tuple);
        ++stats.matches;
      }
    }
  };

  const std::uint64_t enum_count = pow2_saturating(layout.wildcard_bits);
  if (wildcard_hist_ != nullptr) {
    wildcard_hist_->observe(static_cast<double>(enum_count));
    (enum_count <= buckets_.size() ? probes_enumerated_ : probes_filtered_)
        ->add();
  }
  if (layout.wildcard_bits == 0) {
    // Fully bound: exactly one bucket, no enumeration machinery.
    if (meter_ != nullptr) meter_->charge_bucket_visit();
    ++stats.buckets_visited;
    const Bucket* bucket = buckets_.find(layout.fixed);
    if (bucket != nullptr) {
      if (static_cast<std::size_t>(key.bound_count()) == jas_.size()) {
        // Every JAS attribute is bound, so the stored whole-tuple tag is
        // decisive: mismatching entries are rejected in the cached bucket
        // memory without touching the tuple. The tag check is the modelled
        // comparison (same tuples_compared / C_c charge as the slow path);
        // matches() then guards against tag collisions.
        const std::uint64_t tag = key_tag(key);
        for (const BucketEntry& e : *bucket) {
          ++stats.tuples_compared;
          if (meter_ != nullptr) meter_->charge_compare();
          if (e.tag != tag) continue;
          if (key.matches(*e.tuple, jas_)) {
            out.push_back(e.tuple);
            ++stats.matches;
          }
        }
      } else {
        scan_bucket(*bucket);
      }
    }
  } else if (enum_count <= buckets_.size()) {
    // Enumerate the wildcard combinations and look each bucket id up.
    // Distribute the enumeration counter's bits into the unfixed positions.
    // Precompute the unfixed indexed bit positions (ascending).
    SmallVector<std::uint8_t, 32> free_positions;
    for (int bit = 0; bit < config_.total_bits(); ++bit) {
      if ((layout.fixed_mask >> bit & 1u) == 0) {
        free_positions.push_back(static_cast<std::uint8_t>(bit));
      }
    }
    assert(static_cast<int>(free_positions.size()) == layout.wildcard_bits);
    for (std::uint64_t w = 0; w < enum_count; ++w) {
      BucketId id = layout.fixed;
      for (std::size_t i = 0; i < free_positions.size(); ++i) {
        if ((w >> i) & 1u) id |= BucketId{1} << free_positions[i];
      }
      if (meter_ != nullptr) meter_->charge_bucket_visit();
      ++stats.buckets_visited;
      const Bucket* bucket = buckets_.find(id);
      if (bucket != nullptr) scan_bucket(*bucket);
    }
  } else {
    // Cheaper to filter the flat directory by the fixed bits.
    buckets_.for_each([&](BucketId id, const Bucket& bucket) {
      if ((id & layout.fixed_mask) != layout.fixed) return;
      ++stats.buckets_visited;
      if (meter_ != nullptr) meter_->charge_bucket_visit();
      scan_bucket(bucket);
    });
  }
  return stats;
}

void BitAddressIndex::probe_batch(const ProbeKey* keys, std::size_t n,
                                  std::vector<const Tuple*>* outs,
                                  ProbeStats* stats) {
  if (n == 0) return;
  if (n == 1) {
    stats[0] = probe(keys[0], outs[0]);
    return;
  }

  // Per-access-pattern shared work. Which bucket-id bits a mask fixes, the
  // wildcard width, the enumerate-vs-filter strategy and (when enumerating)
  // the wildcard bit combinations are functions of the mask alone — compute
  // them once per distinct mask in the batch. The directory is not mutated
  // by probes, so the strategy choice is stable for the whole batch.
  struct Group {
    AttrMask mask = 0;
    BucketId fixed_mask = 0;
    int wildcard_bits = 0;
    std::uint64_t enum_count = 1;
    bool enumerate_path = false;   ///< wildcard > 0 and enumeration cheaper
    std::uint32_t bound_hashes = 0;  ///< bound indexed attrs (N_{A,ap})
    /// Unfixed indexed bit positions, ascending — probe()'s visit order.
    SmallVector<std::uint8_t, 32> free_positions;
    /// Wildcard bit combinations in w order, materialized only when the
    /// group stays under kComboMaterializeCap; wider wildcards enumerate
    /// lazily from free_positions so the batched path never allocates more
    /// than the unbatched one.
    std::vector<BucketId> combos;
  };
  SmallVector<std::uint32_t, 64> group_of;
  std::vector<Group> groups;
  // mask → group index, so adversarial mask mixes (many distinct masks per
  // batch) stay O(n) instead of the quadratic per-key linear group scan.
  std::unordered_map<AttrMask, std::uint32_t> group_index;
  for (std::size_t i = 0; i < n; ++i) {
    const auto [it, inserted] = group_index.try_emplace(
        keys[i].mask, static_cast<std::uint32_t>(groups.size()));
    if (inserted) {
      Group grp;
      grp.mask = keys[i].mask;
      for (std::size_t pos = 0; pos < config_.num_attrs(); ++pos) {
        const int bits = config_.bits(pos);
        if (bits == 0) continue;
        if (has_bit(grp.mask, static_cast<unsigned>(pos))) {
          grp.fixed_mask |= low_bits64(bits) << config_.shift_of(pos);
          ++grp.bound_hashes;
        } else {
          grp.wildcard_bits += bits;
        }
      }
      grp.enum_count = pow2_saturating(grp.wildcard_bits);
      grp.enumerate_path =
          grp.wildcard_bits > 0 && grp.enum_count <= buckets_.size();
      if (grp.enumerate_path) {
        // Distribute the enumeration counter's bits into the unfixed
        // indexed bit positions (ascending — probe()'s visit order).
        for (int bit = 0; bit < config_.total_bits(); ++bit) {
          if ((grp.fixed_mask >> bit & 1u) == 0) {
            grp.free_positions.push_back(static_cast<std::uint8_t>(bit));
          }
        }
        assert(static_cast<int>(grp.free_positions.size()) ==
               grp.wildcard_bits);
        if (grp.enum_count <= kComboMaterializeCap) {
          grp.combos.reserve(grp.enum_count);
          for (std::uint64_t w = 0; w < grp.enum_count; ++w) {
            BucketId id = 0;
            for (std::size_t b = 0; b < grp.free_positions.size(); ++b) {
              if ((w >> b) & 1u) id |= BucketId{1} << grp.free_positions[b];
            }
            grp.combos.push_back(id);
          }
        }
      }
      groups.push_back(std::move(grp));
    }
    group_of.push_back(it->second);
  }

  // Per-key pass, in batch order: bound-value mapper hashes, bucket visits
  // and comparisons are performed and charged exactly as n single probes.
  for (std::size_t i = 0; i < n; ++i) {
    const Group& grp = groups[group_of[i]];
    const ProbeKey& key = keys[i];
    ProbeStats& st = stats[i];
    st = ProbeStats{};
    std::vector<const Tuple*>& out = outs[i];
    BucketId fixed = 0;
    for (std::size_t pos = 0; pos < config_.num_attrs(); ++pos) {
      const int bits = config_.bits(pos);
      if (bits == 0 || !has_bit(key.mask, static_cast<unsigned>(pos))) {
        continue;
      }
      fixed |= mapper_.map(pos, key.values[pos], bits)
               << config_.shift_of(pos);
    }

    // One hash charge per bound indexed attribute, preserving probe()'s
    // exact charge sequence (and floating-point accumulation order).
    if (meter_ != nullptr) {
      for (std::uint32_t h = 0; h < grp.bound_hashes; ++h) {
        meter_->charge_hash();  // N_{A,ap} · C_h
      }
    }

    auto scan_bucket = [&](const Bucket& bucket) {
      for (const BucketEntry& e : bucket) {
        ++st.tuples_compared;
        if (meter_ != nullptr) meter_->charge_compare();
        if (key.matches(*e.tuple, jas_)) {
          out.push_back(e.tuple);
          ++st.matches;
        }
      }
    };

    if (wildcard_hist_ != nullptr) {
      wildcard_hist_->observe(static_cast<double>(grp.enum_count));
      (grp.enum_count <= buckets_.size() ? probes_enumerated_
                                         : probes_filtered_)
          ->add();
    }
    if (grp.wildcard_bits == 0) {
      if (meter_ != nullptr) meter_->charge_bucket_visit();
      ++st.buckets_visited;
      const Bucket* bucket = buckets_.find(fixed);
      if (bucket != nullptr) {
        if (static_cast<std::size_t>(key.bound_count()) == jas_.size()) {
          const std::uint64_t tag = key_tag(key);
          for (const BucketEntry& e : *bucket) {
            ++st.tuples_compared;
            if (meter_ != nullptr) meter_->charge_compare();
            if (e.tag != tag) continue;
            if (key.matches(*e.tuple, jas_)) {
              out.push_back(e.tuple);
              ++st.matches;
            }
          }
        } else {
          scan_bucket(*bucket);
        }
      }
    } else if (grp.enumerate_path) {
      if (!grp.combos.empty()) {
        const std::size_t m = grp.combos.size();
        for (std::size_t j = 0; j < m; ++j) {
          if (meter_ != nullptr) meter_->charge_bucket_visit();
          ++st.buckets_visited;
          const Bucket* bucket = buckets_.find(fixed | grp.combos[j]);
          if (bucket != nullptr) scan_bucket(*bucket);
        }
      } else {
        // Lazy enumeration (group wider than kComboMaterializeCap): same w
        // order as probe().
        const auto combo_at = [&grp](std::uint64_t w) {
          BucketId id = 0;
          for (std::size_t b = 0; b < grp.free_positions.size(); ++b) {
            if ((w >> b) & 1u) id |= BucketId{1} << grp.free_positions[b];
          }
          return id;
        };
        for (std::uint64_t w = 0; w < grp.enum_count; ++w) {
          if (meter_ != nullptr) meter_->charge_bucket_visit();
          ++st.buckets_visited;
          const Bucket* bucket = buckets_.find(fixed | combo_at(w));
          if (bucket != nullptr) scan_bucket(*bucket);
        }
      }
    } else {
      buckets_.for_each([&](BucketId id, const Bucket& bucket) {
        if ((id & grp.fixed_mask) != fixed) return;
        ++st.buckets_visited;
        if (meter_ != nullptr) meter_->charge_bucket_visit();
        scan_bucket(bucket);
      });
    }
  }
}

ProbeStats BitAddressIndex::probe_range(const RangeProbeKey& key,
                                        std::vector<const Tuple*>& out) {
  ProbeStats stats;
  // Per indexed attribute: the inclusive chunk interval its bucket-id bits
  // may take. Unbound attributes — and hash-mapped attributes with a
  // non-degenerate interval — span their whole chunk space.
  struct ChunkRange {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    int shift = 0;
  };
  SmallVector<ChunkRange, kInlineAttrs> ranges;
  __uint128_t combinations = 1;
  for (std::size_t pos = 0; pos < config_.num_attrs(); ++pos) {
    const int bits = config_.bits(pos);
    if (bits == 0) continue;
    ChunkRange cr;
    cr.shift = config_.shift_of(pos);
    cr.hi = low_bits64(bits);
    if (key.bound(pos)) {
      const bool degenerate = key.los[pos] == key.his[pos];
      if (mapper_.order_preserving(pos)) {
        cr.lo = mapper_.map(pos, key.los[pos], bits);
        cr.hi = mapper_.map(pos, key.his[pos], bits);
        if (meter_ != nullptr) meter_->charge_hash(2);
      } else if (degenerate) {
        cr.lo = cr.hi = mapper_.map(pos, key.los[pos], bits);
        if (meter_ != nullptr) meter_->charge_hash();
      }
      // hash mapper + real interval: keep the full chunk span.
    }
    combinations *= (cr.hi - cr.lo + 1);
    ranges.push_back(cr);
  }

  auto scan_bucket = [&](const Bucket& bucket) {
    for (const BucketEntry& e : bucket) {
      ++stats.tuples_compared;
      if (meter_ != nullptr) meter_->charge_compare();
      if (key.matches(*e.tuple, jas_)) {
        out.push_back(e.tuple);
        ++stats.matches;
      }
    }
  };

  if (combinations <= buckets_.size()) {
    // Odometer over the per-attribute chunk ranges.
    SmallVector<std::uint64_t, kInlineAttrs> current;
    for (const ChunkRange& cr : ranges) current.push_back(cr.lo);
    while (true) {
      BucketId id = 0;
      for (std::size_t i = 0; i < ranges.size(); ++i) {
        id |= current[i] << ranges[i].shift;
      }
      ++stats.buckets_visited;
      if (meter_ != nullptr) meter_->charge_bucket_visit();
      const Bucket* bucket = buckets_.find(id);
      if (bucket != nullptr) scan_bucket(*bucket);
      // Advance the odometer; when every digit wraps, we are done.
      std::size_t i = 0;
      for (; i < ranges.size(); ++i) {
        if (current[i] < ranges[i].hi) {
          ++current[i];
          break;
        }
        current[i] = ranges[i].lo;
      }
      if (i == ranges.size()) break;
    }
  } else {
    // Cheaper to filter the directory: extract each indexed attribute's
    // chunk from the bucket id and test it against the chunk range.
    buckets_.for_each([&](BucketId id, const Bucket& bucket) {
      for (std::size_t pos = 0, r = 0; pos < config_.num_attrs(); ++pos) {
        const int bits = config_.bits(pos);
        if (bits == 0) continue;
        const std::uint64_t chunk =
            (id >> config_.shift_of(pos)) & low_bits64(bits);
        if (chunk < ranges[r].lo || chunk > ranges[r].hi) return;
        ++r;
      }
      ++stats.buckets_visited;
      if (meter_ != nullptr) meter_->charge_bucket_visit();
      scan_bucket(bucket);
    });
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

std::size_t BitAddressIndex::memory_bytes() const {
  // Capacity-aware: the directory's whole slot array (empty slots are real
  // memory) plus heap-spilled bucket storage. Inline tuple pointers live
  // inside the slots, so nothing is counted twice.
  return buckets_.memory_bytes();
}

std::string BitAddressIndex::name() const {
  return "bit_address" + config_.to_string();
}

void BitAddressIndex::clear() {
  buckets_.clear();
  size_ = 0;
  if (memory_ != nullptr && tracked_bytes_ > 0) {
    memory_->release(MemCategory::kIndexStructure, tracked_bytes_);
  }
  tracked_bytes_ = 0;
}

void BitAddressIndex::bulk_load(const std::vector<const Tuple*>& tuples) {
  // Bucket ids come from an uncharged computation identical to
  // bucket_of(); the modelled cost is charged once below.
  for (const Tuple* t : tuples) {
    buckets_.insert(bucket_of_uncharged(*t), t, tuple_tag(*t));
  }
  size_ += tuples.size();
  if (meter_ != nullptr) {
    meter_->charge_hash(tuples.size() *
                        static_cast<std::uint64_t>(config_.indexed_attr_count()));
    meter_->charge_insert(tuples.size());
  }
  // Feed the same instruments insert() feeds: final chain length once per
  // occupied bucket, and a fresh occupancy-imbalance reading. Without this
  // a bulk-loaded stem reported an empty chain_len histogram and a stale
  // imbalance gauge.
  if (chain_hist_ != nullptr) {
    buckets_.for_each([&](BucketId, const Bucket& bucket) {
      chain_hist_->observe(static_cast<double>(bucket.size()));
    });
  }
  if (imbalance_gauge_ != nullptr) {
    imbalance_gauge_->set(occupancy().imbalance);
  }
  sync_memory();
  AMRI_CHECK_INVARIANTS(*this);
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
                 "stored value tag disagrees with a recomputation over the "
                 "tuple's JAS values");
    }
  });
  AMRI_CHECK(tuples == size_,
             "size_ disagrees with the sum of bucket sizes");
  AMRI_CHECK(memory_ == nullptr || tracked_bytes_ == memory_bytes(),
             "memory-tracker bookkeeping is stale");
}

void BitAddressIndex::reconfigure(const IndexConfig& new_config) {
  assert(new_config.num_attrs() == jas_.size());
  // Tags hash the tuples' JAS values, not the IC, so they survive the
  // reconfiguration verbatim — collect entries, not bare tuple pointers.
  std::vector<BucketEntry> all;
  all.reserve(size_);
  buckets_.for_each([&](BucketId, const Bucket& bucket) {
    for (const BucketEntry& e : bucket) all.push_back(e);
  });
  buckets_.clear();
  size_ = 0;
  config_ = new_config;
  for (const BucketEntry& e : all) {
    const BucketId id = bucket_of(*e.tuple);  // charges N_A hashes per tuple
    buckets_.insert(id, e.tuple, e.tag);
    ++size_;
  }
  sync_memory();
  if (imbalance_gauge_ != nullptr) {
    imbalance_gauge_->set(occupancy().imbalance);
  }
  AMRI_CHECK_INVARIANTS(*this);
}

}  // namespace amri::index
