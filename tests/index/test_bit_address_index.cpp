#include "index/bit_address_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "../test_util.hpp"

namespace amri::index {
namespace {

JoinAttributeSet jas3() { return JoinAttributeSet({0, 1, 2}); }

ProbeKey key_for(AttrMask mask, std::initializer_list<Value> vals) {
  ProbeKey k;
  k.mask = mask;
  for (const Value v : vals) k.values.push_back(v);
  return k;
}

TEST(BitAddressIndex, InsertProbeExactPattern) {
  BitAddressIndex idx(jas3(), IndexConfig({4, 4, 4}));
  const Tuple t1 = testutil::make_tuple({1, 2, 3}, 1);
  const Tuple t2 = testutil::make_tuple({1, 2, 4}, 2);
  idx.insert(&t1);
  idx.insert(&t2);
  EXPECT_EQ(idx.size(), 2u);

  std::vector<const Tuple*> out;
  const auto stats = idx.probe(key_for(0b111, {1, 2, 3}), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], &t1);
  EXPECT_EQ(stats.matches, 1u);
  // Fully bound probe touches exactly one bucket.
  EXPECT_EQ(stats.buckets_visited, 1u);
}

TEST(BitAddressIndex, WildcardProbeEnumeratesBuckets) {
  BitAddressIndex idx(jas3(), IndexConfig({2, 2, 2}));
  testutil::TuplePool pool(200, 3, 50, 9);
  for (const Tuple* t : pool.pointers()) idx.insert(t);

  // Bind only attribute 0: 4 bits of wildcard -> up to 16 candidate ids.
  std::vector<const Tuple*> out;
  const Value v = pool.at(0)->at(0);
  const auto stats = idx.probe(key_for(0b001, {v, 0, 0}), out);
  EXPECT_GT(stats.buckets_visited, 1u);
  // Every returned tuple really matches.
  for (const Tuple* t : out) EXPECT_EQ(t->at(0), v);
  // And every stored match was found.
  std::size_t expected = 0;
  for (const Tuple* t : pool.pointers()) {
    if (t->at(0) == v) ++expected;
  }
  EXPECT_EQ(out.size(), expected);
}

TEST(BitAddressIndex, UnindexedAttributeVerifiedByComparison) {
  // Attribute 2 has no bits: probes binding it still verify via compare.
  BitAddressIndex idx(jas3(), IndexConfig({4, 4, 0}));
  const Tuple a = testutil::make_tuple({1, 2, 3}, 1);
  const Tuple b = testutil::make_tuple({1, 2, 4}, 2);
  idx.insert(&a);
  idx.insert(&b);
  std::vector<const Tuple*> out;
  idx.probe(key_for(0b111, {1, 2, 4}), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], &b);
}

TEST(BitAddressIndex, EraseRemovesTuple) {
  BitAddressIndex idx(jas3(), IndexConfig({3, 3, 3}));
  const Tuple t = testutil::make_tuple({9, 9, 9}, 1);
  idx.insert(&t);
  idx.erase(&t);
  EXPECT_EQ(idx.size(), 0u);
  std::vector<const Tuple*> out;
  idx.probe(key_for(0b111, {9, 9, 9}), out);
  EXPECT_TRUE(out.empty());
}

TEST(BitAddressIndex, EraseMissingIsNoop) {
  BitAddressIndex idx(jas3(), IndexConfig({2, 2, 2}));
  const Tuple t = testutil::make_tuple({1, 1, 1});
  idx.erase(&t);
  EXPECT_EQ(idx.size(), 0u);
}

TEST(BitAddressIndex, DuplicateValuesCoexist) {
  BitAddressIndex idx(jas3(), IndexConfig({2, 2, 2}));
  const Tuple t1 = testutil::make_tuple({5, 5, 5}, 1);
  const Tuple t2 = testutil::make_tuple({5, 5, 5}, 2);
  idx.insert(&t1);
  idx.insert(&t2);
  std::vector<const Tuple*> out;
  idx.probe(key_for(0b111, {5, 5, 5}), out);
  EXPECT_EQ(out.size(), 2u);
  idx.erase(&t1);
  out.clear();
  idx.probe(key_for(0b111, {5, 5, 5}), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], &t2);
}

TEST(BitAddressIndex, ZeroBitConfigActsAsScan) {
  BitAddressIndex idx(jas3(), IndexConfig::zero(3));
  testutil::TuplePool pool(50, 3, 10, 2);
  for (const Tuple* t : pool.pointers()) idx.insert(t);
  EXPECT_EQ(idx.occupied_buckets(), 1u);  // everything in bucket 0
  std::vector<const Tuple*> out;
  const auto stats = idx.probe(key_for(0b001, {pool.at(0)->at(0), 0, 0}), out);
  EXPECT_EQ(stats.tuples_compared, 50u);
  EXPECT_FALSE(out.empty());
}

TEST(BitAddressIndex, ChargesHashesToMeter) {
  CostMeter meter;
  BitAddressIndex idx(jas3(), IndexConfig({4, 0, 4}), &meter);
  const Tuple t = testutil::make_tuple({1, 2, 3});
  idx.insert(&t);
  // Two indexed attributes -> two hash charges (N_A · C_h).
  EXPECT_EQ(meter.hashes(), 2u);
  EXPECT_EQ(meter.inserts(), 1u);
}

TEST(BitAddressIndex, ChargesProbeHashesOnlyForBoundIndexedAttrs) {
  CostMeter meter;
  BitAddressIndex idx(jas3(), IndexConfig({4, 4, 0}), &meter);
  std::vector<const Tuple*> out;
  meter.reset_counts();
  // Bind attrs 0 and 2; only attr 0 is indexed -> exactly 1 hash.
  idx.probe(key_for(0b101, {1, 0, 3}), out);
  EXPECT_EQ(meter.hashes(), 1u);
}

TEST(BitAddressIndex, TracksMemory) {
  MemoryTracker mem;
  testutil::TuplePool pool(100, 3, 1000, 5);
  {
    BitAddressIndex idx(jas3(), IndexConfig({4, 4, 4}), nullptr, &mem);
    for (const Tuple* t : pool.pointers()) idx.insert(t);
    EXPECT_GT(mem.category(MemCategory::kIndexStructure), 0u);
  }
  // Destructor releases everything.
  EXPECT_EQ(mem.category(MemCategory::kIndexStructure), 0u);
}

TEST(BitAddressIndex, ReconfigurePreservesTupleSet) {
  BitAddressIndex idx(jas3(), IndexConfig({6, 0, 0}));
  testutil::TuplePool pool(300, 3, 20, 11);
  for (const Tuple* t : pool.pointers()) idx.insert(t);
  idx.reconfigure(IndexConfig({2, 2, 2}));
  EXPECT_EQ(idx.size(), 300u);
  EXPECT_EQ(idx.config(), IndexConfig({2, 2, 2}));

  // Every tuple still findable under the new IC.
  std::vector<const Tuple*> out;
  const Tuple* t0 = pool.at(0);
  idx.probe(key_for(0b111, {t0->at(0), t0->at(1), t0->at(2)}), out);
  EXPECT_NE(std::find(out.begin(), out.end(), t0), out.end());
}

TEST(BitAddressIndex, ReconfigureChargesRehash) {
  CostMeter meter;
  BitAddressIndex idx(jas3(), IndexConfig({4, 0, 0}), &meter);
  testutil::TuplePool pool(10, 3, 100, 3);
  for (const Tuple* t : pool.pointers()) idx.insert(t);
  meter.reset_counts();
  idx.reconfigure(IndexConfig({2, 2, 2}));
  // 10 tuples x 3 indexed attrs.
  EXPECT_EQ(meter.hashes(), 30u);
}

TEST(BitAddressIndex, ForEachTupleVisitsAll) {
  BitAddressIndex idx(jas3(), IndexConfig({3, 3, 3}));
  testutil::TuplePool pool(64, 3, 8, 21);
  for (const Tuple* t : pool.pointers()) idx.insert(t);
  std::size_t visited = 0;
  idx.for_each_tuple([&](const Tuple*) { ++visited; });
  EXPECT_EQ(visited, 64u);
}

TEST(BitAddressIndex, InvariantsHoldAcrossMutations) {
  BitAddressIndex idx(jas3(), IndexConfig({3, 3, 0}));
  testutil::TuplePool pool(300, 3, 16, 77);
  for (const Tuple* t : pool.pointers()) idx.insert(t);
  idx.check_invariants();
  idx.reconfigure(IndexConfig({2, 2, 2}));
  idx.check_invariants();
  for (std::size_t i = 0; i < 150; ++i) idx.erase(pool.at(i));
  idx.check_invariants();
  for (std::size_t i = 150; i < 300; ++i) idx.erase(pool.at(i));
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_EQ(idx.occupied_buckets(), 0u);
  idx.check_invariants();
}

// A one-position JAS signature is the whole mix64 of the value, so a probe
// there decides matches in bucket memory. A two-position JAS keeps only the
// top 32 bits per position: two distinct values sharing them reach the
// tuple verification, which must still tell them apart. Random inputs
// essentially never meet such a pair, so a birthday search finds one.
TEST(BitAddressIndex, SignatureExactOnlyForOnePositionJas) {
  std::unordered_map<std::uint32_t, Value> seen;
  Value a = 0;
  Value b = 0;
  for (Value v = 1; v < (Value{1} << 22); ++v) {
    const auto top = static_cast<std::uint32_t>(
        mix64(static_cast<std::uint64_t>(v)) >> 32);
    const auto [it, fresh] = seen.emplace(top, v);
    if (!fresh) {
      a = it->second;
      b = v;
      break;
    }
  }
  ASSERT_NE(a, b) << "no 32-bit signature collision found";

  // Both tuples land in the one bucket of a zero-bit IC.
  BitAddressIndex two(JoinAttributeSet({0, 1}), IndexConfig({0, 0}));
  const Tuple ta = testutil::make_tuple({a, 7}, 1);
  const Tuple tb = testutil::make_tuple({b, 7}, 2);
  two.insert(&ta);
  two.insert(&tb);
  for (const AttrMask mask : {AttrMask{0b01}, AttrMask{0b11}}) {
    std::vector<const Tuple*> out;
    const auto stats = two.probe(key_for(mask, {a, 7}), out);
    ASSERT_EQ(out.size(), 1u) << "mask " << mask;
    EXPECT_EQ(out[0], &ta);
    EXPECT_EQ(stats.tuples_compared, 2u);
  }

  // One position: the full signatures differ and the probe needs no tuple.
  BitAddressIndex one(JoinAttributeSet({0}), IndexConfig({0}));
  one.insert(&ta);
  one.insert(&tb);
  std::vector<const Tuple*> out;
  const auto stats = one.probe(key_for(0b1, {b}), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], &tb);
  EXPECT_EQ(stats.tuples_compared, 2u);
}

TEST(Occupancy, EmptyIndexZeros) {
  BitAddressIndex idx(JoinAttributeSet({0}), IndexConfig({3}));
  const auto o = idx.occupancy();
  EXPECT_EQ(o.occupied, 0u);
  EXPECT_EQ(o.tuples, 0u);
  EXPECT_DOUBLE_EQ(o.imbalance, 0.0);
}

TEST(Occupancy, UniformValuesNearPerfect) {
  // 16 values whose 4-bit chunks are distinct, ten tuples each: every
  // bucket of the 4-bit IC holds exactly ten.
  std::vector<Value> values;
  std::vector<bool> taken(16, false);
  for (Value v = 0; values.size() < 16; ++v) {
    const std::uint64_t chunk = value_bits(0, v, 4);
    if (taken[chunk]) continue;
    taken[chunk] = true;
    values.push_back(v);
  }
  BitAddressIndex idx(JoinAttributeSet({0}), IndexConfig({4}));
  std::vector<Tuple> tuples;
  for (int rep = 0; rep < 10; ++rep) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      tuples.push_back(testutil::make_tuple(
          {values[i]}, static_cast<std::uint64_t>(rep) * 16 + i));
    }
  }
  for (const Tuple& t : tuples) idx.insert(&t);
  const auto o = idx.occupancy();
  EXPECT_EQ(o.occupied, 16u);
  EXPECT_EQ(o.min, 10u);
  EXPECT_EQ(o.max, 10u);
  EXPECT_DOUBLE_EQ(o.imbalance, 1.0);
  EXPECT_DOUBLE_EQ(o.stddev, 0.0);
}

TEST(ValueBits, ZeroBitsAlwaysZero) {
  EXPECT_EQ(value_bits(0, 12345, 0), 0u);
  EXPECT_EQ(value_bits(1, 55, 0), 0u);
}

TEST(ValueBits, HashStaysInRange) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const auto v = static_cast<Value>(rng.next());
    for (int bits = 1; bits <= 12; ++bits) {
      EXPECT_LT(value_bits(0, v, bits), std::uint64_t{1} << bits);
    }
  }
}

TEST(ValueBits, HashDeterministic) {
  EXPECT_EQ(value_bits(0, 42, 8), value_bits(0, 42, 8));
}

TEST(ValueBits, HashSaltedByPosition) {
  // Same value in different attribute positions should usually differ.
  int same = 0;
  for (Value v = 0; v < 100; ++v) {
    if (value_bits(0, v, 16) == value_bits(1, v, 16)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(ValueBits, HashRoughlyUniform) {
  std::vector<int> cells(16, 0);
  for (Value v = 0; v < 16000; ++v) {
    ++cells[value_bits(0, v, 4)];
  }
  for (const int c : cells) {
    EXPECT_NEAR(static_cast<double>(c), 1000.0, 200.0);
  }
}

TEST(ValueBits, PinnedValues) {
  // Bucket ids, and with them every compare and charged cost, follow from
  // these chunks: a different hash must fail here, not drift silently.
  struct Case {
    std::size_t pos;
    Value v;
    int bits;
    std::uint64_t chunk;
  };
  const Case cases[] = {
      {0, 0, 4, 0x9},
      {0, 0, 63, 0x4e503378d2559775},
      {0, 42, 12, 0x2d1},
      {0, -1, 12, 0x25b},
      {0, std::numeric_limits<Value>::min(), 63, 0x8e05bba2f5c46b0},
      {0, std::numeric_limits<Value>::max(), 12, 0xc08},
      {1, 0, 12, 0xd30},
      {1, 42, 63, 0x3bfdacdb1d3b802},
      {1, -1, 4, 0x4},
      {8, 42, 12, 0xee7},
      {8, -1, 63, 0x27c8fbf42d6ae700},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(value_bits(c.pos, c.v, c.bits), c.chunk)
        << "pos " << c.pos << " v " << c.v << " bits " << c.bits;
  }
}

}  // namespace
}  // namespace amri::index
