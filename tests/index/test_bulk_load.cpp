#include <gtest/gtest.h>

#include <set>

#include "../test_util.hpp"
#include "index/bit_address_index.hpp"

namespace amri::index {
namespace {

JoinAttributeSet jas3() { return JoinAttributeSet({0, 1, 2}); }

TEST(BulkLoad, EquivalentToSequentialInserts) {
  testutil::TuplePool pool(800, 3, 40, 3);
  BitAddressIndex serial(jas3(), IndexConfig({3, 3, 2}), BitMapper::hashing(3));
  BitAddressIndex bulk(jas3(), IndexConfig({3, 3, 2}), BitMapper::hashing(3));
  for (const Tuple* t : pool.pointers()) serial.insert(t);
  bulk.bulk_load(pool.pointers());
  EXPECT_EQ(bulk.size(), serial.size());
  EXPECT_EQ(bulk.occupied_buckets(), serial.occupied_buckets());

  // Same probe answers.
  Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    ProbeKey key;
    key.mask = static_cast<AttrMask>(1 + rng.below(7));
    key.values.resize(3, 0);
    for_each_bit(key.mask, [&](unsigned pos) {
      key.values[pos] = static_cast<Value>(rng.below(40));
    });
    std::vector<const Tuple*> a;
    std::vector<const Tuple*> b;
    serial.probe(key, a);
    bulk.probe(key, b);
    EXPECT_EQ(std::set<const Tuple*>(a.begin(), a.end()),
              std::set<const Tuple*>(b.begin(), b.end()));
  }
}

TEST(BulkLoad, ChargesSameCostAsInserts) {
  testutil::TuplePool pool(100, 3, 20, 7);
  CostMeter bulk_meter;
  CostMeter serial_meter;
  BitAddressIndex bulk(jas3(), IndexConfig({2, 2, 0}), BitMapper::hashing(3),
                       &bulk_meter);
  BitAddressIndex serial(jas3(), IndexConfig({2, 2, 0}),
                         BitMapper::hashing(3), &serial_meter);
  bulk.bulk_load(pool.pointers());
  for (const Tuple* t : pool.pointers()) serial.insert(t);
  EXPECT_EQ(bulk_meter.hashes(), serial_meter.hashes());
  EXPECT_EQ(bulk_meter.inserts(), serial_meter.inserts());
}

TEST(BulkLoad, EmptyBatchIsNoop) {
  BitAddressIndex idx(jas3(), IndexConfig({2, 2, 2}), BitMapper::hashing(3));
  idx.bulk_load({});
  EXPECT_EQ(idx.size(), 0u);
}

TEST(BulkLoad, TracksMemory) {
  MemoryTracker mem;
  testutil::TuplePool pool(500, 3, 30, 9);
  BitAddressIndex idx(jas3(), IndexConfig({3, 3, 3}), BitMapper::hashing(3),
                      nullptr, &mem);
  idx.bulk_load(pool.pointers());
  EXPECT_GT(mem.category(MemCategory::kIndexStructure), 0u);
}

}  // namespace
}  // namespace amri::index
