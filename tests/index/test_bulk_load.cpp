// The batched index calls the engine runs: insert_batch() (admission of a
// segment's arrivals) and erase_batch() (window expiry) must leave the
// same index, charges and tracked memory as the equivalent loop of single
// insert() / erase() calls.
#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "../test_util.hpp"
#include "index/bit_address_index.hpp"

namespace amri::index {
namespace {

JoinAttributeSet jas3() { return JoinAttributeSet({0, 1, 2}); }

/// Every occupied bucket's id and stored tuples, in directory and bucket
/// order.
std::vector<std::pair<BucketId, std::vector<const Tuple*>>> snapshot_of(
    const BitAddressIndex& idx) {
  std::vector<std::pair<BucketId, std::vector<const Tuple*>>> snap;
  idx.directory().for_each(
      [&](BucketId id, const BucketDirectory::Bucket& bucket) {
        std::vector<const Tuple*> tuples;
        for (const BucketEntry& e : bucket) tuples.push_back(e.tuple);
        snap.emplace_back(id, std::move(tuples));
      });
  return snap;
}

TEST(BulkLoad, EquivalentToSequentialInserts) {
  testutil::TuplePool pool(800, 3, 40, 3);
  const std::vector<const Tuple*> tuples = pool.pointers();
  BitAddressIndex serial(jas3(), IndexConfig({3, 3, 2}));
  BitAddressIndex bulk(jas3(), IndexConfig({3, 3, 2}));
  for (const Tuple* t : tuples) serial.insert(t);
  bulk.insert_batch(tuples.data(), tuples.size());
  EXPECT_EQ(bulk.size(), serial.size());
  EXPECT_EQ(bulk.occupied_buckets(), serial.occupied_buckets());
  EXPECT_EQ(snapshot_of(bulk), snapshot_of(serial));

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
  const std::vector<const Tuple*> tuples = pool.pointers();
  CostMeter bulk_meter;
  CostMeter serial_meter;
  BitAddressIndex bulk(jas3(), IndexConfig({2, 2, 0}), &bulk_meter);
  BitAddressIndex serial(jas3(), IndexConfig({2, 2, 0}), &serial_meter);
  bulk.insert_batch(tuples.data(), tuples.size());
  for (const Tuple* t : tuples) serial.insert(t);
  EXPECT_EQ(bulk_meter.hashes(), serial_meter.hashes());
  EXPECT_EQ(bulk_meter.inserts(), serial_meter.inserts());
  EXPECT_EQ(bulk_meter.charged_us(), serial_meter.charged_us());
}

TEST(BulkLoad, EmptyBatchIsNoop) {
  BitAddressIndex idx(jas3(), IndexConfig({2, 2, 2}));
  idx.insert_batch(nullptr, 0);
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_EQ(idx.occupied_buckets(), 0u);
}

TEST(BulkLoad, TracksMemory) {
  MemoryTracker mem;
  testutil::TuplePool pool(500, 3, 30, 9);
  const std::vector<const Tuple*> tuples = pool.pointers();
  BitAddressIndex idx(jas3(), IndexConfig({3, 3, 3}), nullptr, &mem);
  idx.insert_batch(tuples.data(), tuples.size());
  EXPECT_GT(mem.category(MemCategory::kIndexStructure), 0u);
  EXPECT_EQ(mem.category(MemCategory::kIndexStructure), idx.memory_bytes());
}

TEST(EraseBatch, MatchesEraseLoopIncludingAbsentTuples) {
  testutil::TuplePool pool(600, 3, 30, 5);
  const std::vector<const Tuple*> all = pool.pointers();
  const std::vector<const Tuple*> stored(all.begin(), all.begin() + 500);
  // Every third stored tuple, with one never-inserted tuple after every
  // second victim.
  std::vector<const Tuple*> victims;
  std::size_t absent = 500;
  for (std::size_t i = 0; i < stored.size(); i += 3) {
    victims.push_back(stored[i]);
    if (victims.size() % 2 == 0 && absent < all.size()) {
      victims.push_back(all[absent++]);
    }
  }
  const std::size_t present = (stored.size() + 2) / 3;
  ASSERT_GT(absent, 500u);

  CostMeter batch_meter;
  CostMeter loop_meter;
  MemoryTracker batch_mem;
  MemoryTracker loop_mem;
  BitAddressIndex batch(jas3(), IndexConfig({3, 3, 2}), &batch_meter,
                        &batch_mem);
  BitAddressIndex loop(jas3(), IndexConfig({3, 3, 2}), &loop_meter,
                       &loop_mem);
  batch.insert_batch(stored.data(), stored.size());
  loop.insert_batch(stored.data(), stored.size());
  batch_meter.reset_counts();
  loop_meter.reset_counts();

  batch.erase_batch(victims.data(), victims.size());
  for (const Tuple* t : victims) loop.erase(t);

  EXPECT_EQ(batch.size(), stored.size() - present);
  EXPECT_EQ(batch.size(), loop.size());
  EXPECT_EQ(snapshot_of(batch), snapshot_of(loop));
  // Hashes for every victim, present or not; deletes for the present ones.
  EXPECT_EQ(batch_meter.hashes(), victims.size() * 3);
  EXPECT_EQ(batch_meter.hashes(), loop_meter.hashes());
  EXPECT_EQ(batch_meter.deletes(), present);
  EXPECT_EQ(batch_meter.deletes(), loop_meter.deletes());
  EXPECT_EQ(batch_meter.charged_us(), loop_meter.charged_us());
  EXPECT_EQ(batch_mem.category(MemCategory::kIndexStructure),
            loop_mem.category(MemCategory::kIndexStructure));
  batch.check_invariants();
}

}  // namespace
}  // namespace amri::index
