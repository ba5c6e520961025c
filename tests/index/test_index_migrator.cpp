#include "index/index_migrator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "../test_util.hpp"

namespace amri::index {
namespace {

JoinAttributeSet jas3() { return JoinAttributeSet({0, 1, 2}); }

TEST(IndexMigrator, MovesAllTuples) {
  BitAddressIndex idx(jas3(), IndexConfig({6, 0, 0}));
  testutil::TuplePool pool(500, 3, 30, 51);
  for (const Tuple* t : pool.pointers()) idx.insert(t);

  const IndexMigrator migrator;
  const auto report = migrator.migrate(idx, IndexConfig({2, 2, 2}));
  EXPECT_EQ(report.tuples_moved, 500u);
  EXPECT_EQ(report.hashes_charged, 1500u);
  EXPECT_EQ(report.from, IndexConfig({6, 0, 0}));
  EXPECT_EQ(report.to, IndexConfig({2, 2, 2}));
  EXPECT_EQ(idx.config(), IndexConfig({2, 2, 2}));
}

TEST(IndexMigrator, PreservesTupleMultiset) {
  BitAddressIndex idx(jas3(), IndexConfig({4, 4, 0}));
  testutil::TuplePool pool(200, 3, 10, 53);
  std::set<const Tuple*> expected;
  for (const Tuple* t : pool.pointers()) {
    idx.insert(t);
    expected.insert(t);
  }
  const IndexMigrator migrator;
  migrator.migrate(idx, IndexConfig({0, 4, 4}));
  std::set<const Tuple*> found;
  idx.for_each_tuple([&](const Tuple* t) { found.insert(t); });
  EXPECT_EQ(found, expected);
}

TEST(IndexMigrator, NoopWhenConfigUnchanged) {
  CostMeter meter;
  BitAddressIndex idx(jas3(), IndexConfig({3, 3, 3}), &meter);
  testutil::TuplePool pool(50, 3, 10, 57);
  for (const Tuple* t : pool.pointers()) idx.insert(t);
  meter.reset_counts();
  const IndexMigrator migrator;
  const auto report = migrator.migrate(idx, IndexConfig({3, 3, 3}));
  EXPECT_EQ(report.tuples_moved, 0u);
  EXPECT_EQ(meter.hashes(), 0u);
}

TEST(IndexMigrator, ProbesCorrectAfterMigration) {
  BitAddressIndex idx(jas3(), IndexConfig({6, 0, 0}));
  testutil::TuplePool pool(300, 3, 12, 59);
  for (const Tuple* t : pool.pointers()) idx.insert(t);
  const IndexMigrator migrator;
  migrator.migrate(idx, IndexConfig({0, 3, 3}));

  const Tuple* target = pool.at(42);
  ProbeKey k;
  k.mask = 0b110;
  k.values = {0, target->at(1), target->at(2)};
  std::vector<const Tuple*> out;
  idx.probe(k, out);
  EXPECT_NE(std::find(out.begin(), out.end(), target), out.end());
  for (const Tuple* t : out) {
    EXPECT_EQ(t->at(1), target->at(1));
    EXPECT_EQ(t->at(2), target->at(2));
  }
}

TEST(IndexMigrator, EmptyIndexMigratesCheaply) {
  CostMeter meter;
  BitAddressIndex idx(jas3(), IndexConfig({3, 0, 0}), &meter);
  const IndexMigrator migrator;
  const auto report = migrator.migrate(idx, IndexConfig({0, 0, 3}));
  EXPECT_EQ(report.tuples_moved, 0u);
  EXPECT_EQ(idx.config(), IndexConfig({0, 0, 3}));
}

}  // namespace
}  // namespace amri::index
