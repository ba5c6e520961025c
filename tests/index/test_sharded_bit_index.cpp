// ShardedBitIndex vs a single BitAddressIndex, driven through the same
// seeded mixed sequence of insert / erase / probe / migrate operations.
// The sharded wrapper must agree on every logical observable: match
// multisets, match counts, size, and post-migration contents. Work counts
// are compared route-aware: a fan-out probe visits every shard and
// compares exactly the reference's tuples, while a targeted probe visits
// only the owning shard and so may compare strictly fewer (bucket
// co-residents that live in other shards are pruned — the whole point of
// sharding on the bound attribute). Bucket-visit counts may legitimately
// differ either way (a bucket id occupied once in the single index can be
// occupied in several shards), so they are not compared.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "../test_util.hpp"
#include "common/rng.hpp"
#include "index/index_migrator.hpp"
#include "index/sharded_bit_index.hpp"

namespace amri::index {
namespace {

IndexConfig random_config(Rng& rng) {
  std::vector<std::uint8_t> bits(3);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.below(4));
  return IndexConfig(bits);
}

void run_differential(std::size_t shards, std::uint64_t seed,
                      std::size_t total_ops) {
  const Value kDomain = 60;
  JoinAttributeSet jas({0, 1, 2});
  IndexConfig config({3, 2, 2});
  BitAddressIndex ref(jas, config);
  ShardedBitIndex idx(jas, config, shards, /*shard_pos=*/1);
  const IndexMigrator migrator;

  testutil::TuplePool pool(3000, 3, static_cast<int>(kDomain), seed + 1);
  std::vector<const Tuple*> free_list = pool.pointers();
  std::vector<const Tuple*> live;
  Rng rng(seed);

  std::size_t targeted = 0;
  std::size_t fanned_out = 0;
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
    } else if (dice < 96) {
      ProbeKey key;
      key.mask = static_cast<AttrMask>(rng.below(8));
      for (std::size_t pos = 0; pos < 3; ++pos) {
        const Value v =
            (!live.empty() && rng.chance(0.5))
                ? live[rng.below(live.size())]->at(jas.tuple_attr(pos))
                : static_cast<Value>(
                      rng.below(static_cast<std::uint64_t>(kDomain)));
        key.values.push_back(v);
      }
      const bool is_targeted = idx.target_shard(key) < idx.shard_count();
      if (is_targeted) {
        ++targeted;
      } else {
        ++fanned_out;
      }
      std::vector<const Tuple*> got;
      std::vector<const Tuple*> want;
      const ProbeStats got_stats = idx.probe(key, got);
      const ProbeStats want_stats = ref.probe(key, want);
      EXPECT_EQ(got_stats.matches, want_stats.matches) << "op " << op;
      if (is_targeted) {
        // Only the owning shard is searched: never more work than the
        // reference, often less (partition pruning).
        EXPECT_LE(got_stats.tuples_compared, want_stats.tuples_compared)
            << "op " << op;
      } else {
        EXPECT_EQ(got_stats.tuples_compared, want_stats.tuples_compared)
            << "op " << op;
      }
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      EXPECT_EQ(got, want) << "op " << op;
    } else {
      const IndexConfig next = random_config(rng);
      const auto report = idx.migrate_shards(next, migrator);
      const auto ref_report = migrator.migrate(ref, next);
      EXPECT_EQ(report.tuples_moved, ref_report.tuples_moved) << "op " << op;
      EXPECT_EQ(report.hashes_charged, ref_report.hashes_charged)
          << "op " << op;
      EXPECT_LE(report.max_shard_hashes, report.hashes_charged);
      EXPECT_EQ(idx.config(), next);
    }

    EXPECT_EQ(idx.size(), ref.size()) << "op " << op;
    if (op % 1000 == 0) idx.check_invariants();
    if (::testing::Test::HasFailure()) {
      FAIL() << "first divergence at op " << op;
    }
  }
  // The mix must have exercised both probe routes (shard attr bound and
  // unbound) — for one shard everything is targeted by definition.
  EXPECT_GT(targeted + fanned_out, total_ops / 4);
  if (shards > 1) {
    EXPECT_GT(targeted, 0u);
    EXPECT_GT(fanned_out, 0u);
  }
  idx.check_invariants();
}

TEST(ShardedBitIndex, DifferentialOneShard) {
  run_differential(/*shards=*/1, /*seed=*/21, /*total_ops=*/8000);
}

TEST(ShardedBitIndex, DifferentialTwoShards) {
  run_differential(/*shards=*/2, /*seed=*/22, /*total_ops=*/8000);
}

TEST(ShardedBitIndex, DifferentialFourShards) {
  run_differential(/*shards=*/4, /*seed=*/23, /*total_ops=*/8000);
}

TEST(ShardedBitIndex, DifferentialSevenShards) {
  run_differential(/*shards=*/7, /*seed=*/24, /*total_ops=*/8000);
}

TEST(ShardedBitIndex, ShardRouteIsStableAcrossMigrations) {
  JoinAttributeSet jas({0, 1});
  ShardedBitIndex idx(jas, IndexConfig({2, 2}), /*shards=*/4);
  testutil::TuplePool pool(500, 2, 40, 9);
  std::vector<std::size_t> homes;
  for (const Tuple* t : pool.pointers()) {
    idx.insert(t);
    homes.push_back(idx.shard_of(*t));
  }
  const IndexMigrator migrator;
  idx.migrate_shards(IndexConfig({0, 4}), migrator);
  idx.migrate_shards(IndexConfig({4, 0}), migrator);
  const auto ptrs = pool.pointers();
  for (std::size_t i = 0; i < ptrs.size(); ++i) {
    EXPECT_EQ(idx.shard_of(*ptrs[i]), homes[i]) << "tuple " << i;
  }
  idx.check_invariants();
}

TEST(ShardedBitIndex, BalanceReportsSkew) {
  JoinAttributeSet jas({0, 1});
  ShardedBitIndex idx(jas, IndexConfig({2, 2}), /*shards=*/4);
  // All tuples share one sharding value -> one shard holds everything.
  testutil::TuplePool pool(64, 2, 40, 3);
  std::vector<Tuple> skewed;
  skewed.reserve(pool.size());
  for (const Tuple* t : pool.pointers()) {
    Tuple copy = *t;
    copy.values[0] = 7;
    skewed.push_back(copy);
  }
  for (const Tuple& t : skewed) idx.insert(&t);
  const ShardBalance b = idx.balance();
  ASSERT_EQ(b.sizes.size(), 4u);
  EXPECT_EQ(b.max, skewed.size());
  EXPECT_DOUBLE_EQ(b.mean, static_cast<double>(skewed.size()) / 4.0);
  EXPECT_DOUBLE_EQ(b.imbalance, 4.0);
  for (const Tuple& t : skewed) idx.erase(&t);
  EXPECT_EQ(idx.size(), 0u);
}

TEST(ShardedBitIndex, TargetShardRequiresShardAttrBound) {
  JoinAttributeSet jas({0, 1, 2});
  ShardedBitIndex idx(jas, IndexConfig({2, 2, 2}), /*shards=*/3,
                      /*shard_pos=*/2);
  ProbeKey unbound;
  unbound.mask = 0b011;  // positions 0 and 1 only
  unbound.values = {1, 2, 3};
  EXPECT_EQ(idx.target_shard(unbound), idx.shard_count());
  ProbeKey bound;
  bound.mask = 0b100;
  bound.values = {0, 0, 9};
  EXPECT_LT(idx.target_shard(bound), idx.shard_count());
}

// A fan-out probe sums its per-shard statistics with +=.
TEST(ProbeStats, AccumulatesComponentwise) {
  ProbeStats a{1, 2, 3};
  const ProbeStats b{10, 20, 30};
  a += b;
  EXPECT_EQ(a.buckets_visited, 11u);
  EXPECT_EQ(a.tuples_compared, 22u);
  EXPECT_EQ(a.matches, 33u);
  (a += b) += b;  // returns *this, so accumulation chains
  EXPECT_EQ(a.matches, 93u);
}

}  // namespace
}  // namespace amri::index
