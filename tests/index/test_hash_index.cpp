#include "index/hash_index.hpp"

#include <gtest/gtest.h>

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

TEST(HashIndex, ServesSubsetMasks) {
  HashIndex idx(jas3(), 0b011);
  EXPECT_TRUE(idx.serves(0b011));
  EXPECT_TRUE(idx.serves(0b111));
  EXPECT_FALSE(idx.serves(0b001));  // index needs attr 1 bound too
  EXPECT_FALSE(idx.serves(0b100));
}

TEST(HashIndex, InsertAndProbe) {
  HashIndex idx(jas3(), 0b011);
  const Tuple t1 = testutil::make_tuple({1, 2, 3}, 1);
  const Tuple t2 = testutil::make_tuple({1, 3, 3}, 2);
  idx.insert(&t1);
  idx.insert(&t2);
  std::vector<const Tuple*> out;
  const auto stats = idx.probe(key_for(0b011, {1, 2, 0}), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], &t1);
  EXPECT_EQ(stats.matches, 1u);
}

TEST(HashIndex, SupersetProbeVerifiesExtraAttrs) {
  HashIndex idx(jas3(), 0b001);
  const Tuple t1 = testutil::make_tuple({7, 1, 1}, 1);
  const Tuple t2 = testutil::make_tuple({7, 2, 2}, 2);
  idx.insert(&t1);
  idx.insert(&t2);
  std::vector<const Tuple*> out;
  idx.probe(key_for(0b111, {7, 2, 2}), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], &t2);
}

TEST(HashIndex, EraseSpecificTuple) {
  HashIndex idx(jas3(), 0b111);
  const Tuple t1 = testutil::make_tuple({4, 4, 4}, 1);
  const Tuple t2 = testutil::make_tuple({4, 4, 4}, 2);
  idx.insert(&t1);
  idx.insert(&t2);
  idx.erase(&t1);
  EXPECT_EQ(idx.size(), 1u);
  std::vector<const Tuple*> out;
  idx.probe(key_for(0b111, {4, 4, 4}), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], &t2);
}

TEST(HashIndex, ChargesHashPerKeyAttr) {
  CostMeter meter;
  HashIndex idx(jas3(), 0b011, &meter);
  const Tuple t = testutil::make_tuple({1, 2, 3});
  idx.insert(&t);
  EXPECT_EQ(meter.hashes(), 2u);  // two key attributes hashed
  EXPECT_EQ(meter.inserts(), 1u);
}

TEST(HashIndex, MemoryGrowsPerEntry) {
  MemoryTracker mem;
  testutil::TuplePool pool(500, 3, 100, 13);
  HashIndex idx(jas3(), 0b010, nullptr, &mem);
  std::size_t prev = 0;
  for (const Tuple* t : pool.pointers()) {
    idx.insert(t);
    EXPECT_GE(mem.category(MemCategory::kIndexStructure), prev);
    prev = mem.category(MemCategory::kIndexStructure);
  }
  EXPECT_GT(prev, 500u * 40);  // substantive per-entry overhead
}

TEST(HashIndex, BulkLoadMatchesSequentialInserts) {
  testutil::TuplePool pool(300, 3, 20, 29);
  CostParams costs;
  costs.hash_cost_us = 1.0 / 3.0;
  VirtualClock one_clock;
  VirtualClock bulk_clock;
  CostMeter one_meter(&one_clock, costs);
  CostMeter bulk_meter(&bulk_clock, costs);
  MemoryTracker one_mem;
  MemoryTracker bulk_mem;
  HashIndex one(jas3(), 0b101, &one_meter, &one_mem);
  HashIndex bulk(jas3(), 0b101, &bulk_meter, &bulk_mem);
  for (const Tuple* t : pool.pointers()) one.insert(t);
  bulk.bulk_load(pool.pointers());

  EXPECT_EQ(bulk.size(), one.size());
  EXPECT_EQ(bulk.memory_bytes(), one.memory_bytes());
  EXPECT_EQ(bulk_mem.total(), one_mem.total());
  EXPECT_EQ(bulk_mem.peak(), one_mem.peak());
  EXPECT_EQ(bulk_meter.hashes(), one_meter.hashes());
  EXPECT_EQ(bulk_meter.inserts(), one_meter.inserts());
  EXPECT_EQ(bulk_meter.charged_us(), one_meter.charged_us());
  EXPECT_EQ(bulk_clock.now(), one_clock.now());
  for (const Value a : {0, 3, 7}) {
    std::vector<const Tuple*> one_out;
    std::vector<const Tuple*> bulk_out;
    one.probe(key_for(0b101, {a, 0, 5}), one_out);
    bulk.probe(key_for(0b101, {a, 0, 5}), bulk_out);
    EXPECT_EQ(bulk_out, one_out) << "A = " << a;
  }
}

TEST(HashIndex, FindsAllDuplicates) {
  HashIndex idx(jas3(), 0b100);
  testutil::TuplePool pool(100, 3, 4, 17);  // small domain -> collisions
  for (const Tuple* t : pool.pointers()) idx.insert(t);
  std::vector<const Tuple*> out;
  idx.probe(key_for(0b100, {0, 0, 2}), out);
  std::size_t expected = 0;
  for (const Tuple* t : pool.pointers()) {
    if (t->at(2) == 2) ++expected;
  }
  EXPECT_EQ(out.size(), expected);
}

TEST(HashIndex, NameIncludesPattern) {
  HashIndex idx(jas3(), 0b101);
  EXPECT_EQ(idx.name(), "hash<A,*,C>");
}

}  // namespace
}  // namespace amri::index
