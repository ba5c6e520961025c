// The index telemetry contract: bulk_load() must feed the same
// instruments insert() feeds (chain-length histogram, occupancy-imbalance
// gauge) instead of leaving them empty/stale.
#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "index/bit_address_index.hpp"
#include "telemetry/telemetry.hpp"

namespace amri::index {
namespace {

JoinAttributeSet jas3() { return JoinAttributeSet({0, 1, 2}); }

TEST(IndexTelemetry, BulkLoadFeedsChainHistogramAndImbalanceGauge) {
  telemetry::Telemetry tel;
  BitAddressIndex idx(jas3(), IndexConfig({3, 3, 2}), BitMapper::hashing(3));
  idx.bind_telemetry(&tel, "bulk.index");

  testutil::TuplePool pool(2000, 3, 40, 7);
  idx.bulk_load(pool.pointers());

  const auto* hist = tel.metrics().find_histogram("bulk.index.bucket.chain_len");
  ASSERT_NE(hist, nullptr);
  // One observation per occupied bucket, of its final chain length, so the
  // histogram sum is exactly the number of loaded tuples.
  EXPECT_EQ(hist->count(), idx.occupied_buckets());
  EXPECT_DOUBLE_EQ(hist->sum(), 2000.0);

  const auto* gauge = tel.metrics().find_gauge("bulk.index.occupancy.imbalance");
  ASSERT_NE(gauge, nullptr);
  EXPECT_GT(gauge->value(), 0.0);
  EXPECT_DOUBLE_EQ(gauge->value(), idx.occupancy().imbalance);
}

TEST(IndexTelemetry, BulkLoadMatchesInsertLoopGaugeReading) {
  testutil::TuplePool pool(500, 3, 25, 11);

  telemetry::Telemetry bulk_tel;
  BitAddressIndex bulk(jas3(), IndexConfig({2, 2, 2}), BitMapper::hashing(3));
  bulk.bind_telemetry(&bulk_tel, "idx");
  bulk.bulk_load(pool.pointers());

  telemetry::Telemetry loop_tel;
  BitAddressIndex loop(jas3(), IndexConfig({2, 2, 2}), BitMapper::hashing(3));
  loop.bind_telemetry(&loop_tel, "idx");
  for (const Tuple* t : pool.pointers()) loop.insert(t);

  // Same tuples, same IC: the final gauge readings must agree even though
  // insert() refreshes nothing (the gauge is set at structural transitions)
  // — compare against a reconfigure-driven refresh on the loop index.
  loop.reconfigure(IndexConfig({2, 2, 2}));
  const auto* bulk_gauge = bulk_tel.metrics().find_gauge("idx.occupancy.imbalance");
  const auto* loop_gauge = loop_tel.metrics().find_gauge("idx.occupancy.imbalance");
  ASSERT_NE(bulk_gauge, nullptr);
  ASSERT_NE(loop_gauge, nullptr);
  EXPECT_DOUBLE_EQ(bulk_gauge->value(), loop_gauge->value());

  // The bulk chain histogram observes each bucket once; the insert-loop
  // histogram observes every intermediate chain length. Their sums differ,
  // but both must be non-empty and the bulk count must equal the bucket
  // count exactly.
  const auto* bulk_hist = bulk_tel.metrics().find_histogram("idx.bucket.chain_len");
  const auto* loop_hist = loop_tel.metrics().find_histogram("idx.bucket.chain_len");
  ASSERT_NE(bulk_hist, nullptr);
  ASSERT_NE(loop_hist, nullptr);
  EXPECT_EQ(bulk_hist->count(), bulk.occupied_buckets());
  EXPECT_EQ(loop_hist->count(), 500u);
}

TEST(IndexTelemetry, ReconfigureRefreshesImbalanceGauge) {
  telemetry::Telemetry tel;
  BitAddressIndex idx(jas3(), IndexConfig({4, 0, 0}), BitMapper::hashing(3));
  idx.bind_telemetry(&tel, "idx");
  testutil::TuplePool pool(800, 3, 50, 13);
  idx.bulk_load(pool.pointers());
  const auto* gauge = tel.metrics().find_gauge("idx.occupancy.imbalance");
  ASSERT_NE(gauge, nullptr);
  const double before = gauge->value();
  EXPECT_DOUBLE_EQ(before, idx.occupancy().imbalance);

  idx.reconfigure(IndexConfig({2, 2, 2}));
  EXPECT_DOUBLE_EQ(gauge->value(), idx.occupancy().imbalance);
}

TEST(IndexTelemetry, DetachedBulkLoadIsSilentAndSafe) {
  BitAddressIndex idx(jas3(), IndexConfig({3, 2, 1}), BitMapper::hashing(3));
  testutil::TuplePool pool(300, 3, 30, 17);
  idx.bulk_load(pool.pointers());  // no telemetry bound: must not crash
  EXPECT_EQ(idx.size(), 300u);
  idx.check_invariants();
}

TEST(IndexTelemetry, BindNullDetachesInstruments) {
  telemetry::Telemetry tel;
  BitAddressIndex idx(jas3(), IndexConfig({3, 2, 1}), BitMapper::hashing(3));
  idx.bind_telemetry(&tel, "idx");
  idx.bind_telemetry(nullptr, "");
  testutil::TuplePool pool(100, 3, 30, 19);
  idx.bulk_load(pool.pointers());
  // The registry keeps the instruments, but nothing fed them post-detach.
  const auto* hist = tel.metrics().find_histogram("idx.bucket.chain_len");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 0u);
}

}  // namespace
}  // namespace amri::index
