#include "stats/lossy_counting.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/rng.hpp"

namespace amri::stats {
namespace {

TEST(LossyCounting, SegmentWidthIsCeilOfInverseEpsilon) {
  EXPECT_EQ(LossyCounting<int>(0.1).segment_width(), 10u);
  EXPECT_EQ(LossyCounting<int>(0.001).segment_width(), 1000u);
  EXPECT_EQ(LossyCounting<int>(0.3).segment_width(), 4u);  // ceil(3.33)
}

TEST(LossyCounting, ExactWhenEverythingFrequent) {
  LossyCounting<int> lc(0.1);
  for (int i = 0; i < 100; ++i) lc.observe(i % 2);
  EXPECT_EQ(lc.estimate(0), 50u);
  EXPECT_EQ(lc.estimate(1), 50u);
}

TEST(LossyCounting, EvictsRareKeys) {
  LossyCounting<int> lc(0.05);  // segment width 20
  // Key 999 appears once at the start, then a flood of other keys.
  lc.observe(999);
  for (int i = 0; i < 2000; ++i) lc.observe(i % 3);
  EXPECT_EQ(lc.estimate(999), 0u);  // evicted
  EXPECT_GT(lc.estimate(0), 0u);
}

TEST(LossyCounting, NeverOvercounts) {
  LossyCounting<std::uint32_t> lc(0.01);
  std::map<std::uint32_t, std::uint64_t> truth;
  amri::Rng rng(17);
  for (int i = 0; i < 50000; ++i) {
    const auto k = static_cast<std::uint32_t>(rng.below(50));
    ++truth[k];
    lc.observe(k);
  }
  for (const auto& [k, true_count] : truth) {
    EXPECT_LE(lc.estimate(k), true_count);
  }
}

TEST(LossyCounting, UndercountBoundedByEpsilonN) {
  const double eps = 0.01;
  LossyCounting<std::uint32_t> lc(eps);
  std::map<std::uint32_t, std::uint64_t> truth;
  amri::Rng rng(23);
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    // Zipf-ish skew via squaring.
    const auto k = static_cast<std::uint32_t>(rng.below(40) * rng.below(40) / 40);
    ++truth[k];
    lc.observe(k);
  }
  for (const auto& [k, true_count] : truth) {
    const auto est = lc.estimate(k);
    EXPECT_LE(est, true_count);
    if (est > 0) {
      EXPECT_GE(static_cast<double>(est),
                static_cast<double>(true_count) - eps * n);
    }
  }
}

// The central guarantee: no key with true frequency >= theta is missed.
TEST(LossyCounting, NoFalseNegativesAtThreshold) {
  const double eps = 0.005;
  const double theta = 0.05;
  LossyCounting<std::uint32_t> lc(eps);
  std::map<std::uint32_t, std::uint64_t> truth;
  amri::Rng rng(31);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    // 5 hot keys (~15% each), long tail of cold keys.
    std::uint32_t k;
    if (rng.uniform01() < 0.75) {
      k = static_cast<std::uint32_t>(rng.below(5));
    } else {
      k = 100 + static_cast<std::uint32_t>(rng.below(5000));
    }
    ++truth[k];
    lc.observe(k);
  }
  std::set<std::uint32_t> reported;
  for (const auto& item : lc.results(theta)) reported.insert(item.key);
  for (const auto& [k, c] : truth) {
    if (static_cast<double>(c) / n >= theta) {
      EXPECT_TRUE(reported.count(k)) << "missed hot key " << k;
    }
  }
}

// Dual guarantee: nothing with true frequency < theta - eps is reported.
TEST(LossyCounting, NoFalsePositivesBelowThetaMinusEps) {
  const double eps = 0.01;
  const double theta = 0.1;
  LossyCounting<std::uint32_t> lc(eps);
  std::map<std::uint32_t, std::uint64_t> truth;
  amri::Rng rng(37);
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const auto k = static_cast<std::uint32_t>(rng.below(30));
    ++truth[k];
    lc.observe(k);
  }
  for (const auto& item : lc.results(theta)) {
    const double true_f = static_cast<double>(truth[item.key]) / n;
    EXPECT_GE(true_f, theta - eps);
  }
}

TEST(LossyCounting, MemoryBoundedUnderUniformFlood) {
  const double eps = 0.01;
  LossyCounting<std::uint64_t> lc(eps);
  amri::Rng rng(41);
  const int n = 200000;
  for (int i = 0; i < n; ++i) lc.observe(rng.below(1u << 20));
  // Theoretical bound: (1/eps) * log(eps * n) = 100 * ln(2000) ~ 760.
  EXPECT_LE(lc.size(), static_cast<std::size_t>(
                           (1.0 / eps) * std::log(eps * n) + 100));
}

TEST(LossyCounting, ResultsSortedByCountDescending) {
  LossyCounting<int> lc(0.1);
  for (int i = 0; i < 60; ++i) lc.observe(1);
  for (int i = 0; i < 30; ++i) lc.observe(2);
  for (int i = 0; i < 10; ++i) lc.observe(3);
  const auto res = lc.results(0.05);
  ASSERT_GE(res.size(), 2u);
  EXPECT_EQ(res[0].key, 1);
  EXPECT_EQ(res[1].key, 2);
}

TEST(LossyCounting, ClearResets) {
  LossyCounting<int> lc(0.1);
  lc.observe(1);
  lc.clear();
  EXPECT_EQ(lc.observed(), 0u);
  EXPECT_EQ(lc.size(), 0u);
  EXPECT_EQ(lc.estimate(1), 0u);
}

TEST(LossyCounting, InvariantsHoldAcrossCompressions) {
  LossyCounting<int> lc(0.01);
  for (int i = 0; i < 50000; ++i) {
    lc.observe(i % 317);
    if (i % 7000 == 0) lc.check_invariants();
  }
  lc.check_invariants();
}

}  // namespace
}  // namespace amri::stats
