#include "common/cost_meter.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
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
  // 1000 * 0.3 = 300 microseconds, exactly.
  EXPECT_EQ(clock.now(), 300);
  EXPECT_EQ(meter.charged_us(), 300.0);
}

TEST(CostMeter, ChargedUsTracksTotal) {
  CostParams params;
  params.hash_cost_us = 2.0;
  params.insert_cost_us = 1.0;
  CostMeter meter(nullptr, params);
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

// The six cost fields, addressable by index for table-driven tests.
constexpr std::array<double CostParams::*, 6> kCostFields = {
    &CostParams::hash_cost_us,   &CostParams::compare_cost_us,
    &CostParams::route_cost_us,  &CostParams::insert_cost_us,
    &CostParams::delete_cost_us, &CostParams::bucket_visit_cost_us};
constexpr std::array<const char*, 6> kCostNames = {
    "hash_cost_us",   "compare_cost_us", "route_cost_us",
    "insert_cost_us", "delete_cost_us",  "bucket_visit_cost_us"};

TEST(CostMeter, RejectsInvalidCosts) {
  const double invalid[] = {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(), -0.01,
                            2e9};
  for (std::size_t f = 0; f < kCostFields.size(); ++f) {
    for (const double v : invalid) {
      SCOPED_TRACE(::testing::Message() << kCostNames[f] << " = " << v);
      CostParams params;
      params.*kCostFields[f] = v;
      VirtualClock clock;
      try {
        CostMeter meter(&clock, params);
        ADD_FAILURE() << "accepted an invalid cost";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(kCostNames[f]),
                  std::string::npos)
            << e.what();
      }
    }
    for (const double v : {0.0, 1e6}) {
      CostParams params;
      params.*kCostFields[f] = v;
      EXPECT_NO_THROW(CostMeter(nullptr, params))
          << kCostNames[f] << " = " << v;
    }
  }
}

/// One charge of `n` units of cost kind `kind` (an index into kCostFields).
void charge(CostMeter& meter, std::size_t kind, std::uint64_t n) {
  switch (kind) {
    case 0: meter.charge_hash(n); break;
    case 1: meter.charge_compare(n); break;
    case 2: meter.charge_route(n); break;
    case 3: meter.charge_insert(n); break;
    case 4: meter.charge_delete(n); break;
    default: meter.charge_bucket_visit(n); break;
  }
}

void expect_identical(const CostMeter& a, const VirtualClock& a_clock,
                      const CostMeter& b, const VirtualClock& b_clock,
                      const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.charged_us()),
            std::bit_cast<std::uint64_t>(b.charged_us()))
      << what << ": " << a.charged_us() << " vs " << b.charged_us();
  EXPECT_EQ(a.hashes(), b.hashes()) << what;
  EXPECT_EQ(a.compares(), b.compares()) << what;
  EXPECT_EQ(a.routes(), b.routes()) << what;
  EXPECT_EQ(a.inserts(), b.inserts()) << what;
  EXPECT_EQ(a.deletes(), b.deletes()) << what;
  EXPECT_EQ(a.bucket_visits(), b.bucket_visits()) << what;
  EXPECT_EQ(a_clock.now(), b_clock.now()) << what;
}

TEST(CostMeterProperty, AnyGroupingOfChargesIsExact) {
  // fig7_drift's visit and compare costs, the defaults, and a cost with no
  // finite binary or decimal expansion on every field.
  CostParams drift;
  drift.bucket_visit_cost_us = 0.1;
  drift.compare_cost_us = 0.35;
  CostParams third;
  for (auto field : kCostFields) third.*field = 1.0 / 3.0;
  const CostParams costs[] = {drift, CostParams{}, third};

  Rng rng(2026);
  for (const CostParams& params : costs) {
    for (const TimeMicros start : {TimeMicros{0}, kTimeMax - 50}) {
      for (int trial = 0; trial < 4; ++trial) {
        SCOPED_TRACE(::testing::Message()
                     << "visit " << params.bucket_visit_cost_us << ", compare "
                     << params.compare_cost_us << ", clock " << start
                     << ", trial " << trial);
        std::vector<std::pair<std::size_t, std::uint64_t>> charges;
        for (int i = 0; i < 60; ++i) {
          charges.emplace_back(rng.below(kCostFields.size()),
                               rng.chance(0.1) ? 0 : rng.below(2000));
        }
        VirtualClock unit_clock(start);
        VirtualClock merged_clock(start);
        VirtualClock shuffled_clock(start);
        CostMeter unit(&unit_clock, params);
        CostMeter merged(&merged_clock, params);
        CostMeter shuffled(&shuffled_clock, params);
        CostMeter detached(nullptr, params);

        std::array<std::uint64_t, 6> per_kind{};
        for (const auto& [kind, n] : charges) {
          for (std::uint64_t i = 0; i < n; ++i) charge(unit, kind, 1);
          per_kind[kind] += n;
          charge(detached, kind, n);
        }
        for (std::size_t kind = 0; kind < per_kind.size(); ++kind) {
          charge(merged, kind, per_kind[kind]);
        }
        for (std::size_t i = charges.size(); i > 1; --i) {
          std::swap(charges[i - 1], charges[rng.below(i)]);
        }
        for (const auto& [kind, n] : charges) charge(shuffled, kind, n);

        expect_identical(unit, unit_clock, merged, merged_clock, "merged");
        expect_identical(unit, unit_clock, shuffled, shuffled_clock,
                         "shuffled");
        // A detached meter does the same arithmetic without a clock.
        expect_identical(detached, unit_clock, unit, unit_clock, "detached");
        // One further unit charge exposes any difference in the pending
        // sub-microsecond remainder.
        unit.charge_compare();
        merged.charge_compare();
        shuffled.charge_compare();
        expect_identical(unit, unit_clock, merged, merged_clock,
                         "merged, one more compare");
        expect_identical(unit, unit_clock, shuffled, shuffled_clock,
                         "shuffled, one more compare");
      }
    }
  }
}

TEST(CostMeterProperty, ChargesSumExactlyInDecimal) {
  VirtualClock clock;
  CostParams params;
  params.compare_cost_us = 0.35;
  params.bucket_visit_cost_us = 0.1;
  CostMeter meter(&clock, params);
  meter.charge_compare(3);
  meter.charge_bucket_visit(2);
  EXPECT_EQ(meter.charged_us(), 1.25);
  EXPECT_EQ(clock.now(), 1);
}

TEST(CostMeterProperty, LargeChargesDoNotWrap) {
  CostParams params;
  params.insert_cost_us = 1e6;
  VirtualClock one_clock;
  VirtualClock two_clock;
  CostMeter one(&one_clock, params);
  CostMeter two(&two_clock, params);
  one.charge_insert(20'000'000);  // 2e19 ps: past 2^64
  two.charge_insert(10'000'000);
  two.charge_insert(10'000'000);
  EXPECT_EQ(one.charged_us(), 2e13);
  EXPECT_EQ(one_clock.now(), TimeMicros{20'000'000'000'000});
  expect_identical(one, one_clock, two, two_clock, "one vs two charges");
}

TEST(CostMeterProperty, SaturatesClockAndTotalAtTimeMax) {
  VirtualClock clock(kTimeMax - 50);
  CostParams params;
  params.insert_cost_us = 1e9;
  params.compare_cost_us = 1.0;
  CostMeter meter(&clock, params);
  meter.charge_compare(20);
  EXPECT_EQ(clock.now(), kTimeMax - 30);
  EXPECT_EQ(meter.charged_us(), 20.0);
  meter.charge_insert(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(clock.now(), kTimeMax);
  EXPECT_EQ(meter.charged_us(), static_cast<double>(kTimeMax));
  meter.charge_compare();
  EXPECT_EQ(clock.now(), kTimeMax);
  EXPECT_EQ(meter.charged_us(), static_cast<double>(kTimeMax));
  EXPECT_EQ(meter.compares(), 21u);
}

}  // namespace
}  // namespace amri
