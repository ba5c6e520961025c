// The index telemetry contract: insert_batch() must feed the same
// instruments insert() feeds (the chain-length histogram), reconfigure()
// refreshes the occupancy-imbalance gauge, and a detached index feeds
// nothing.
#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "index/bit_address_index.hpp"
#include "telemetry/telemetry.hpp"

namespace amri::index {
namespace {

JoinAttributeSet jas3() { return JoinAttributeSet({0, 1, 2}); }

TEST(IndexTelemetry, InsertBatchFeedsChainHistogramLikeInsertLoop) {
  testutil::TuplePool pool(2000, 3, 40, 7);
  const std::vector<const Tuple*> tuples = pool.pointers();

  telemetry::Telemetry batch_tel;
  BitAddressIndex batch(jas3(), IndexConfig({3, 3, 2}));
  batch.bind_telemetry(&batch_tel, "idx");
  batch.insert_batch(tuples.data(), tuples.size());

  telemetry::Telemetry loop_tel;
  BitAddressIndex loop(jas3(), IndexConfig({3, 3, 2}));
  loop.bind_telemetry(&loop_tel, "idx");
  for (const Tuple* t : tuples) loop.insert(t);

  // One observation per inserted tuple, of its bucket's chain length just
  // after the insert.
  const auto* batch_hist =
      batch_tel.metrics().find_histogram("idx.bucket.chain_len");
  const auto* loop_hist =
      loop_tel.metrics().find_histogram("idx.bucket.chain_len");
  ASSERT_NE(batch_hist, nullptr);
  ASSERT_NE(loop_hist, nullptr);
  EXPECT_EQ(batch_hist->count(), 2000u);
  EXPECT_EQ(batch_hist->count(), loop_hist->count());
  EXPECT_DOUBLE_EQ(batch_hist->sum(), loop_hist->sum());
  EXPECT_EQ(batch_hist->bucket_counts(), loop_hist->bucket_counts());
}

TEST(IndexTelemetry, ReconfigureRefreshesImbalanceGauge) {
  telemetry::Telemetry tel;
  BitAddressIndex idx(jas3(), IndexConfig({4, 0, 0}));
  idx.bind_telemetry(&tel, "idx");
  testutil::TuplePool pool(800, 3, 50, 13);
  const std::vector<const Tuple*> tuples = pool.pointers();
  idx.insert_batch(tuples.data(), tuples.size());
  const auto* gauge = tel.metrics().find_gauge("idx.occupancy.imbalance");
  ASSERT_NE(gauge, nullptr);

  idx.reconfigure(IndexConfig({2, 2, 2}));
  EXPECT_GT(gauge->value(), 0.0);
  EXPECT_DOUBLE_EQ(gauge->value(), idx.occupancy().imbalance);
}

TEST(IndexTelemetry, DetachedBulkLoadIsSilentAndSafe) {
  BitAddressIndex idx(jas3(), IndexConfig({3, 2, 1}));
  testutil::TuplePool pool(300, 3, 30, 17);
  const std::vector<const Tuple*> tuples = pool.pointers();
  // No telemetry bound: must not crash.
  idx.insert_batch(tuples.data(), tuples.size());
  EXPECT_EQ(idx.size(), 300u);
  idx.check_invariants();
}

TEST(IndexTelemetry, BindNullDetachesInstruments) {
  telemetry::Telemetry tel;
  BitAddressIndex idx(jas3(), IndexConfig({3, 2, 1}));
  idx.bind_telemetry(&tel, "idx");
  idx.bind_telemetry(nullptr, "");
  testutil::TuplePool pool(100, 3, 30, 19);
  const std::vector<const Tuple*> tuples = pool.pointers();
  idx.insert_batch(tuples.data(), tuples.size());
  // The registry keeps the instruments, but nothing fed them post-detach.
  const auto* hist = tel.metrics().find_histogram("idx.bucket.chain_len");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 0u);
}

}  // namespace
}  // namespace amri::index
