// Randomized differential test: the flat-directory BitAddressIndex against
// a straightforward reference implementation backed by
// std::unordered_map<BucketId, std::vector<const Tuple*>> (the shape of the
// directory the index used before the open-addressing rewrite). The two are
// driven through the same seeded mixed sequence of insert / erase / probe /
// reconfigure operations and must agree on every observable:
// match sets, match counts, tuples compared, size, and occupied buckets.
// The reference has no value signatures, so the 1- and 9-attribute cases
// check that signature filtering never loses a match: their values include
// the extremes of Value and values whose 7-bit signature chunks collide.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "index/bit_address_index.hpp"

namespace amri::index {
namespace {

/// The pre-rewrite directory semantics, kept deliberately naive: sparse
/// hash map of vectors, swap-with-last erase, filter-everything probes.
class ReferenceIndex {
 public:
  ReferenceIndex(JoinAttributeSet jas, IndexConfig config)
      : jas_(std::move(jas)), config_(std::move(config)) {}

  BucketId bucket_of(const Tuple& t) const {
    BucketId id = 0;
    for (std::size_t pos = 0; pos < config_.num_attrs(); ++pos) {
      const int bits = config_.bits(pos);
      if (bits == 0) continue;
      id |= value_bits(pos, t.at(jas_.tuple_attr(pos)), bits)
            << config_.shift_of(pos);
    }
    return id;
  }

  void insert(const Tuple* t) {
    buckets_[bucket_of(*t)].push_back(t);
    ++size_;
  }

  void erase(const Tuple* t) {
    const auto it = buckets_.find(bucket_of(*t));
    if (it == buckets_.end()) return;
    auto& bucket = it->second;
    const auto pos = std::find(bucket.begin(), bucket.end(), t);
    if (pos == bucket.end()) return;
    *pos = bucket.back();
    bucket.pop_back();
    if (bucket.empty()) buckets_.erase(it);
    --size_;
  }

  /// The tuples a probe compares: every tuple of every bucket whose id
  /// agrees with the fixed bits of the bound indexed attributes (mirrors
  /// BitAddressIndex::layout_for without the cost-meter charges).
  std::vector<const Tuple*> candidates(const ProbeKey& key) const {
    BucketId fixed = 0;
    BucketId fixed_mask = 0;
    for (std::size_t pos = 0; pos < config_.num_attrs(); ++pos) {
      const int bits = config_.bits(pos);
      if (bits == 0 || !has_bit(key.mask, static_cast<unsigned>(pos))) {
        continue;
      }
      fixed |= value_bits(pos, key.values[pos], bits) << config_.shift_of(pos);
      fixed_mask |= low_bits64(bits) << config_.shift_of(pos);
    }
    std::vector<const Tuple*> out;
    for (const auto& [id, bucket] : buckets_) {
      if ((id & fixed_mask) != fixed) continue;
      out.insert(out.end(), bucket.begin(), bucket.end());
    }
    return out;
  }

  ProbeStats probe(const ProbeKey& key, std::vector<const Tuple*>& out) const {
    ProbeStats stats;
    for (const Tuple* t : candidates(key)) {
      ++stats.tuples_compared;
      if (key.matches(*t, jas_)) {
        out.push_back(t);
        ++stats.matches;
      }
    }
    return stats;
  }

  void reconfigure(const IndexConfig& new_config) {
    std::vector<const Tuple*> all;
    for (const auto& [id, bucket] : buckets_) {
      all.insert(all.end(), bucket.begin(), bucket.end());
    }
    buckets_.clear();
    size_ = 0;
    config_ = new_config;
    for (const Tuple* t : all) insert(t);
  }

  std::size_t size() const { return size_; }
  std::size_t occupied_buckets() const { return buckets_.size(); }

  /// Canonical snapshot: sorted (bucket id, sorted tuple pointers) pairs.
  std::vector<std::pair<BucketId, std::vector<const Tuple*>>> snapshot() const {
    std::vector<std::pair<BucketId, std::vector<const Tuple*>>> snap(
        buckets_.begin(), buckets_.end());
    for (auto& [id, bucket] : snap) std::sort(bucket.begin(), bucket.end());
    std::sort(snap.begin(), snap.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return snap;
  }

 private:
  JoinAttributeSet jas_;
  IndexConfig config_;
  std::unordered_map<BucketId, std::vector<const Tuple*>> buckets_;
  std::size_t size_ = 0;
};

std::vector<std::pair<BucketId, std::vector<const Tuple*>>> snapshot_of(
    const BitAddressIndex& idx) {
  std::vector<std::pair<BucketId, std::vector<const Tuple*>>> snap;
  idx.directory().for_each(
      [&](BucketId id, const BucketDirectory::Bucket& bucket) {
        std::vector<const Tuple*> tuples;
        tuples.reserve(bucket.size());
        for (const BucketEntry& e : bucket) tuples.push_back(e.tuple);
        std::sort(tuples.begin(), tuples.end());
        snap.emplace_back(id, std::move(tuples));
      });
  std::sort(snap.begin(), snap.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return snap;
}

IndexConfig random_config(Rng& rng, std::size_t width) {
  std::vector<std::uint8_t> bits(width);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.below(4));
  return IndexConfig(bits);
}

/// Values whose top 7 mixed bits (the signature chunk of a 9-attribute
/// JAS) equal those of 0, 0 first.
std::vector<Value> chunk_colliders(std::size_t count) {
  const auto chunk = [](Value v) {
    return mix64(static_cast<std::uint64_t>(v)) >> 57;
  };
  std::vector<Value> out = {0};
  for (Value v = 1; out.size() < count; ++v) {
    if (chunk(v) == chunk(0)) out.push_back(v);
  }
  return out;
}

/// Values of the signature cases: the extremes of Value, -1, and values
/// whose 7-bit chunks collide.
std::vector<Value> hostile_values() {
  std::vector<Value> out = {std::numeric_limits<Value>::min(),
                            std::numeric_limits<Value>::max(), -1};
  for (const Value v : chunk_colliders(8)) out.push_back(v);
  return out;
}

/// Drive both indexes through `total_ops` seeded mixed operations on a JAS
/// of `width` attributes and compare every observable after each probe plus
/// periodic deep snapshots. Tuple and probe values are uniform in a small
/// domain, or, when `special` is non-empty, a quarter of them come from it.
/// `collisions`, when set, receives how many compared tuples had the
/// signature chunks of every bound value (as BitAddressIndex lays them
/// out) but not every value: the entries its filter passes and matches()
/// must reject.
void run_differential(std::size_t width, std::uint64_t seed,
                      std::size_t total_ops,
                      const std::vector<Value>& special = {},
                      std::size_t* collisions = nullptr) {
  const Value kDomain = 60;
  std::vector<AttrId> attrs;
  std::vector<std::uint8_t> bits;
  for (std::size_t pos = 0; pos < width; ++pos) {
    attrs.push_back(static_cast<AttrId>(pos));
    bits.push_back(pos == 0 ? 3 : pos < 3 ? 2 : 1);
  }
  JoinAttributeSet jas(attrs);
  IndexConfig config(bits);
  BitAddressIndex idx(jas, config);
  ReferenceIndex ref(jas, config);

  // Without special values this draws what testutil::TuplePool draws.
  const auto draw = [&](Rng& r) {
    if (!special.empty() && r.chance(0.25)) {
      return special[r.below(special.size())];
    }
    return static_cast<Value>(r.below(static_cast<std::uint64_t>(kDomain)));
  };
  std::vector<std::unique_ptr<Tuple>> pool;
  Rng pool_rng(seed + 1);
  for (std::size_t i = 0; i < 3000; ++i) {
    auto t = std::make_unique<Tuple>();
    t->seq = i;
    t->ts = static_cast<TimeMicros>(i);
    for (std::size_t pos = 0; pos < width; ++pos) {
      t->values.push_back(draw(pool_rng));
    }
    pool.push_back(std::move(t));
  }
  std::vector<const Tuple*> free_list;
  for (const auto& t : pool) free_list.push_back(t.get());
  std::vector<const Tuple*> live;
  Rng rng(seed);
  const AttrMask universe = jas.universe();

  std::size_t probes_run = 0;
  for (std::size_t op = 0; op < total_ops; ++op) {
    const std::size_t dice = rng.below(100);
    if (dice < 45 && !free_list.empty()) {
      const std::size_t pick = rng.below(free_list.size());
      const Tuple* t = free_list[pick];
      free_list[pick] = free_list.back();
      free_list.pop_back();
      idx.insert(t);
      ref.insert(t);
      live.push_back(t);
    } else if (dice < 65 && !live.empty()) {
      const std::size_t pick = rng.below(live.size());
      const Tuple* t = live[pick];
      live[pick] = live.back();
      live.pop_back();
      idx.erase(t);
      ref.erase(t);
      free_list.push_back(t);
    } else if (dice < 97) {
      // Point probe with a random access pattern; values come from a live
      // tuple half the time (guaranteed hits) and fresh randomness the rest.
      ProbeKey key;
      key.mask = static_cast<AttrMask>(rng.below(std::uint64_t{universe} + 1));
      for (std::size_t pos = 0; pos < width; ++pos) {
        const Value v = (!live.empty() && rng.chance(0.5))
                            ? live[rng.below(live.size())]->at(
                                  jas.tuple_attr(pos))
                            : draw(rng);
        key.values.push_back(v);
      }
      std::vector<const Tuple*> got;
      std::vector<const Tuple*> want;
      const ProbeStats got_stats = idx.probe(key, got);
      const ProbeStats want_stats = ref.probe(key, want);
      EXPECT_EQ(got_stats.matches, want_stats.matches) << "op " << op;
      EXPECT_EQ(got_stats.tuples_compared, want_stats.tuples_compared)
          << "op " << op;
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      EXPECT_EQ(got, want) << "op " << op;
      ++probes_run;
      if (collisions != nullptr) {
        const int chunk_bits = 64 / static_cast<int>(width);
        const auto chunk = [&](Value v) {
          return mix64(static_cast<std::uint64_t>(v)) >> (64 - chunk_bits);
        };
        for (const Tuple* t : ref.candidates(key)) {
          bool chunks_equal = true;
          for_each_bit(key.mask, [&](unsigned pos) {
            if (chunk(t->at(jas.tuple_attr(pos))) != chunk(key.values[pos])) {
              chunks_equal = false;
            }
          });
          if (chunks_equal && !key.matches(*t, jas)) ++*collisions;
        }
      }
    } else {
      const IndexConfig next = random_config(rng, width);
      idx.reconfigure(next);
      ref.reconfigure(next);
    }

    EXPECT_EQ(idx.size(), ref.size()) << "op " << op;
    EXPECT_EQ(idx.occupied_buckets(), ref.occupied_buckets()) << "op " << op;
    if (op % 500 == 0) {
      EXPECT_EQ(snapshot_of(idx), ref.snapshot()) << "op " << op;
      idx.check_invariants();
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "first divergence at op " << op;
    }
  }
  // The mix must actually have exercised the probe paths.
  EXPECT_GT(probes_run, total_ops / 4);
  EXPECT_EQ(snapshot_of(idx), ref.snapshot());
  idx.check_invariants();
}

TEST(IndexDifferential, MixedOpsHashMapper) {
  run_differential(/*width=*/3, /*seed=*/42, /*total_ops=*/12000);
}

TEST(IndexDifferential, OneAttributeSignatureKeepsEveryMatch) {
  // One JAS position: its signature chunk is all 64 mixed bits.
  run_differential(/*width=*/1, /*seed=*/77, /*total_ops=*/12000,
                   hostile_values());
}

TEST(IndexDifferential, NineAttributeSignatureKeepsEveryMatch) {
  // Nine JAS positions: 7-bit chunks, and tuple values spill past
  // kInlineAttrs to the heap.
  ASSERT_GT(9u, kInlineAttrs);
  std::size_t collisions = 0;
  run_differential(/*width=*/9, /*seed=*/91, /*total_ops=*/12000,
                   hostile_values(), &collisions);
  EXPECT_GT(collisions, 0u) << "no probe met a colliding signature";
}

}  // namespace
}  // namespace amri::index
