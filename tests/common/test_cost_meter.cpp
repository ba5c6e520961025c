#include "common/cost_meter.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace amri {
namespace {

TEST(CostMeter, CountsWithoutClock) {
  CostMeter meter;
  meter.charge_hash(3);
  meter.charge_compare(5);
  meter.charge_route();
  EXPECT_EQ(meter.hashes(), 3u);
  EXPECT_EQ(meter.compares(), 5u);
  EXPECT_EQ(meter.routes(), 1u);
}

TEST(CostMeter, ChargesClockInWholeMicros) {
  VirtualClock clock;
  CostParams params;
  params.hash_cost_us = 1.0;
  CostMeter meter(&clock, params);
  meter.charge_hash(10);
  EXPECT_EQ(clock.now(), 10);
}

TEST(CostMeter, AccumulatesFractionalCharges) {
  VirtualClock clock;
  CostParams params;
  params.compare_cost_us = 0.25;
  CostMeter meter(&clock, params);
  for (int i = 0; i < 8; ++i) meter.charge_compare();
  // 8 * 0.25 = 2 whole microseconds.
  EXPECT_EQ(clock.now(), 2);
}

TEST(CostMeter, FractionalChargesNeverLost) {
  VirtualClock clock;
  CostParams params;
  params.compare_cost_us = 0.3;
  CostMeter meter(&clock, params);
  for (int i = 0; i < 1000; ++i) meter.charge_compare();
  // 1000 * 0.3 = 300 microseconds; allow rounding slack of 1.
  EXPECT_GE(clock.now(), 299);
  EXPECT_LE(clock.now(), 300);
}

TEST(CostMeter, ChargedUsTracksTotal) {
  CostMeter meter;
  CostParams params;
  params.hash_cost_us = 2.0;
  params.insert_cost_us = 1.0;
  meter.set_params(params);
  meter.charge_hash(2);
  meter.charge_insert(3);
  EXPECT_DOUBLE_EQ(meter.charged_us(), 7.0);
}

TEST(CostMeter, ResetCounts) {
  CostMeter meter;
  meter.charge_hash();
  meter.charge_delete(2);
  meter.reset_counts();
  EXPECT_EQ(meter.hashes(), 0u);
  EXPECT_EQ(meter.deletes(), 0u);
  EXPECT_DOUBLE_EQ(meter.charged_us(), 0.0);
}

TEST(CostMeter, ResetCountsDropsFractionalRemainder) {
  VirtualClock clock;
  CostParams params;
  params.compare_cost_us = 0.6;
  CostMeter meter(&clock, params);
  meter.charge_compare();  // 0.6 us pending, clock still at 0
  EXPECT_EQ(clock.now(), 0);
  meter.reset_counts();
  // The pending remainder must not leak into post-reset charges: another
  // 0.6 us stays below a whole microsecond.
  meter.charge_compare();
  EXPECT_EQ(clock.now(), 0);
  meter.charge_compare();
  EXPECT_EQ(clock.now(), 1);
}

TEST(CostMeter, AttachLater) {
  CostMeter meter;
  meter.charge_hash(100);  // uncharged: no clock yet
  VirtualClock clock;
  meter.attach(&clock);
  CostParams params;
  params.hash_cost_us = 1.0;
  meter.set_params(params);
  meter.charge_hash(5);
  EXPECT_EQ(clock.now(), 5);
  EXPECT_EQ(meter.hashes(), 105u);
}

TEST(CostMeter, AllCategoriesCharge) {
  VirtualClock clock;
  CostParams params;
  params.hash_cost_us = 1;
  params.compare_cost_us = 1;
  params.route_cost_us = 1;
  params.insert_cost_us = 1;
  params.delete_cost_us = 1;
  params.bucket_visit_cost_us = 1;
  CostMeter meter(&clock, params);
  meter.charge_hash();
  meter.charge_compare();
  meter.charge_route();
  meter.charge_insert();
  meter.charge_delete();
  meter.charge_bucket_visit();
  EXPECT_EQ(clock.now(), 6);
  EXPECT_EQ(meter.bucket_visits(), 1u);
}

/// Two meters with the same costs, each on its own clock (or both without
/// one): `single` charges one call at a time, `scan` charges a bucket at a
/// time. Both start from the same non-zero fractional remainder.
struct ScanPair {
  ScanPair(double visit, double compare, bool with_clock, TimeMicros start)
      : single_clock(start), scan_clock(start) {
    CostParams params;
    params.hash_cost_us = 0.15;
    params.bucket_visit_cost_us = visit;
    params.compare_cost_us = compare;
    single = CostMeter(with_clock ? &single_clock : nullptr, params);
    scan = CostMeter(with_clock ? &scan_clock : nullptr, params);
    single.charge_hash(3);
    scan.charge_hash(3);
  }

  void charge(std::uint64_t n) {
    single.charge_bucket_visit();
    for (std::uint64_t i = 0; i < n; ++i) single.charge_compare();
    scan.charge_bucket_scan(n);
  }

  void expect_identical(const char* when) const {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(single.charged_us()),
              std::bit_cast<std::uint64_t>(scan.charged_us()))
        << when << ": " << single.charged_us() << " vs " << scan.charged_us();
    EXPECT_EQ(single.hashes(), scan.hashes()) << when;
    EXPECT_EQ(single.compares(), scan.compares()) << when;
    EXPECT_EQ(single.routes(), scan.routes()) << when;
    EXPECT_EQ(single.inserts(), scan.inserts()) << when;
    EXPECT_EQ(single.deletes(), scan.deletes()) << when;
    EXPECT_EQ(single.bucket_visits(), scan.bucket_visits()) << when;
    EXPECT_EQ(single_clock.now(), scan_clock.now()) << when;
  }

  VirtualClock single_clock;
  VirtualClock scan_clock;
  CostMeter single;
  CostMeter scan;
};

TEST(CostMeter, BucketScanIsBitIdenticalToSingleCharges) {
  // fig7_drift's costs, the defaults, and a compare cost with no finite
  // binary expansion.
  const double costs[][2] = {{0.1, 0.35}, {0.02, 0.05}, {0.02, 1.0 / 3.0}};
  std::vector<std::uint64_t> counts = {0, 1, 7, 20, 1000};
  Rng rng(2026);
  for (int i = 0; i < 20; ++i) counts.push_back(rng.below(3000));
  for (const auto& cost : costs) {
    for (const bool with_clock : {true, false}) {
      for (const std::uint64_t n : counts) {
        SCOPED_TRACE(::testing::Message()
                     << "visit " << cost[0] << ", compare " << cost[1]
                     << ", n " << n << (with_clock ? ", clock" : ", no clock"));
        ScanPair pair(cost[0], cost[1], with_clock, 0);
        pair.charge(n);
        pair.expect_identical("after the scan");
        // One further single charge exposes any difference in the pending
        // fractional remainder.
        pair.single.charge_compare();
        pair.scan.charge_compare();
        pair.expect_identical("after one more compare");
      }
      // Scans back to back carry the remainder from one to the next.
      ScanPair chained(cost[0], cost[1], with_clock, 0);
      for (const std::uint64_t n : counts) chained.charge(n);
      chained.expect_identical("after chained scans");
    }
  }
}

TEST(CostMeter, BucketScanSaturatesTheClockLikeSingleCharges) {
  ScanPair pair(0.1, 0.35, /*with_clock=*/true, kTimeMax - 50);
  pair.charge(20);
  pair.expect_identical("below the limit");
  pair.charge(1000);
  pair.expect_identical("saturated");
  EXPECT_EQ(pair.scan_clock.now(), kTimeMax);
  pair.single.charge_compare();
  pair.scan.charge_compare();
  pair.expect_identical("after one more compare");
}

}  // namespace
}  // namespace amri
