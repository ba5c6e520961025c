// Property tests over all assessment methods (parameterized sweep):
//   P1. No false negatives: every pattern with true frequency >= theta is
//       represented in the answer — directly (SRIA/CSRIA/DIA) or with its
//       mask present after rollup (CDIA).
//   P2. Reported frequencies never exceed 1 and counts never exceed N.
//   P3. Compact methods retain (far) fewer entries than the pattern space
//       under adversarial uniform workloads.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>

#include "assessment/assessor.hpp"
#include "common/rng.hpp"

namespace amri::assessment {
namespace {

struct SweepCase {
  AssessorKind kind;
  double epsilon;
  double theta;
  std::uint64_t seed;
};

class AssessorSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(AssessorSweep, GuaranteesHold) {
  const SweepCase& sc = GetParam();
  const AttrMask universe = 0b11111;  // 32 patterns
  AssessorParams params;
  params.epsilon = sc.epsilon;
  params.seed = sc.seed;
  const auto assessor = make_assessor(sc.kind, universe, params);

  // Workload: 3 hot patterns (20%, 15%, 12%), remainder spread uniformly.
  Rng rng(sc.seed * 31 + 7);
  std::map<AttrMask, std::uint64_t> truth;
  const int n = 60000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform01();
    AttrMask m;
    if (u < 0.20) m = 0b00011;
    else if (u < 0.35) m = 0b10100;
    else if (u < 0.47) m = 0b00001;
    else m = static_cast<AttrMask>(rng.below(32));
    ++truth[m];
    assessor->observe(m);
  }
  ASSERT_EQ(assessor->observed(), static_cast<std::uint64_t>(n));

  const auto res = assessor->results(sc.theta);
  std::set<AttrMask> reported;
  for (const auto& r : res) {
    reported.insert(r.mask);
    // P2: sane counts and frequencies.
    EXPECT_LE(r.count, static_cast<std::uint64_t>(n));
    EXPECT_GE(r.frequency, 0.0);
    EXPECT_LE(r.frequency, 1.0);
  }

  // P1: all truly-hot patterns present. CSRIA reports on *estimated*
  // frequencies which undershoot by up to epsilon, so its guarantee only
  // covers patterns above theta + epsilon.
  const double p1_bar = sc.kind == AssessorKind::kCsria
                            ? sc.theta + sc.epsilon
                            : sc.theta;
  for (const auto& [mask, count] : truth) {
    const double f = static_cast<double>(count) / n;
    if (f >= p1_bar) {
      EXPECT_TRUE(reported.count(mask))
          << assessor->name() << " missed mask " << mask << " at f=" << f;
    }
  }

  // P3: nobody exceeds the pattern space. (True compaction below the
  // space size needs per-pattern frequency < epsilon; see the dedicated
  // compactness test below for that regime.)
  EXPECT_LE(assessor->table_size(), 32u);
}

// Compact methods shed entries when the tail falls below epsilon: with a
// 12-attribute universe (4096 patterns) and epsilon = 1%, the retained
// tables must stay orders of magnitude below the pattern space while the
// exact methods (SRIA/DIA) materialise nearly all of it.
TEST(AssessorCompactness, CompactMethodsShedColdTail) {
  const AttrMask universe = 0xFFF;
  AssessorParams params;
  params.epsilon = 0.01;
  const auto kinds = {AssessorKind::kSria, AssessorKind::kCsria,
                      AssessorKind::kCdiaRandom,
                      AssessorKind::kCdiaHighestCount};
  Rng rng(5);
  std::vector<AttrMask> workload;
  const int n = 150000;
  workload.reserve(n);
  for (int i = 0; i < n; ++i) {
    workload.push_back(rng.uniform01() < 0.3
                           ? AttrMask{0x00F}
                           : static_cast<AttrMask>(rng.below(4096)));
  }
  for (const auto kind : kinds) {
    const auto assessor = make_assessor(kind, universe, params);
    for (const AttrMask m : workload) assessor->observe(m);
    if (kind == AssessorKind::kSria) {
      EXPECT_GT(assessor->table_size(), 3000u);
    } else if (kind == AssessorKind::kCsria) {
      // Lossy counting: (1/eps) * log(eps * N) ~ 730.
      EXPECT_LT(assessor->table_size(), 800u) << assessor->name();
    } else {
      // CDIA's bound is h times looser (h = 13 lattice levels) because
      // merged mass props up ancestors; still far below the 4096 space.
      EXPECT_LT(assessor->table_size(), 2500u) << assessor->name();
    }
    // Hot pattern retained in all methods.
    bool hot = false;
    for (const auto& r : assessor->results(0.2)) {
      if (r.mask == 0x00F) hot = true;
    }
    EXPECT_TRUE(hot) << assessor->name();
  }
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  const AssessorKind kinds[] = {
      AssessorKind::kSria, AssessorKind::kCsria, AssessorKind::kDia,
      AssessorKind::kCdiaRandom, AssessorKind::kCdiaHighestCount};
  for (const auto kind : kinds) {
    for (const double eps : {0.002, 0.01}) {
      for (const double theta : {0.08, 0.12}) {
        for (const std::uint64_t seed : {1ull, 2ull}) {
          // gtest prints the raw bytes of the param into the test name, so
          // the padding after `kind` must be zero, not stack garbage.
          SweepCase c;
          std::memset(&c, 0, sizeof c);
          c.kind = kind;
          c.epsilon = eps;
          c.theta = theta;
          c.seed = seed;
          cases.push_back(c);
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, AssessorSweep, ::testing::ValuesIn(sweep_cases()),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      std::string name = assessor_kind_name(info.param.kind);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      name += "_eps" + std::to_string(static_cast<int>(
                           info.param.epsilon * 1000));
      name += "_th" + std::to_string(static_cast<int>(
                          info.param.theta * 100));
      name += "_s" + std::to_string(info.param.seed);
      return name;
    });

}  // namespace
}  // namespace amri::assessment
