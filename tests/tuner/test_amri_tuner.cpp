#include "tuner/amri_tuner.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "../test_util.hpp"
#include "assessment/snapshot.hpp"
#include "common/rng.hpp"

namespace amri::tuner {
namespace {

index::CostModel paper_model() {
  index::WorkloadParams p;
  p.lambda_d = 500.0;
  p.lambda_r = 500.0;
  p.window_units = 10.0;
  p.hash_cost = 1.0;
  p.compare_cost = 0.5;
  return index::CostModel(p);
}

TunerOptions fast_options() {
  TunerOptions o;
  o.assessor = assessment::AssessorKind::kCdiaHighestCount;
  o.assessor_params.epsilon = 0.01;
  o.theta = 0.1;
  o.reassess_every = 500;
  o.optimizer.bit_budget = 6;
  o.optimizer.max_bits_per_attr = 6;
  return o;
}

TEST(AmriTuner, NotDueUntilEnoughRequests) {
  AmriTuner tuner(0b111, 3, paper_model(), fast_options());
  for (int i = 0; i < 499; ++i) tuner.observe_request(0b001);
  EXPECT_FALSE(tuner.tuning_due());
  tuner.observe_request(0b001);
  EXPECT_TRUE(tuner.tuning_due());
}

TEST(AmriTuner, RecommendConcentratesBitsOnHotPattern) {
  AmriTuner tuner(0b111, 3, paper_model(), fast_options());
  for (int i = 0; i < 1000; ++i) tuner.observe_request(0b100);
  const auto d = tuner.recommend(index::IndexConfig::zero(3));
  EXPECT_TRUE(d.due);
  EXPECT_EQ(d.recommended.bits(2), 6);
  EXPECT_EQ(d.recommended.bits(0), 0);
  EXPECT_LT(d.recommended_cost, d.current_cost);
}

TEST(AmriTuner, MaybeTuneMigratesIndex) {
  index::BitAddressIndex idx(index::JoinAttributeSet({0, 1, 2}),
                             index::IndexConfig({6, 0, 0}));
  testutil::TuplePool pool(100, 3, 50, 77);
  for (const Tuple* t : pool.pointers()) idx.insert(t);

  AmriTuner tuner(0b111, 3, paper_model(), fast_options());
  // Workload shifted entirely to attribute C.
  for (int i = 0; i < 1000; ++i) tuner.observe_request(0b100);
  const auto d = tuner.maybe_tune(idx);
  EXPECT_TRUE(d.migrated);
  EXPECT_EQ(idx.config().bits(2), 6);
  EXPECT_EQ(idx.size(), 100u);
  EXPECT_EQ(tuner.migrations(), 1u);
}

TEST(AmriTuner, NoMigrationWhenConfigAlreadyOptimal) {
  index::BitAddressIndex idx(index::JoinAttributeSet({0, 1, 2}),
                             index::IndexConfig({0, 0, 6}));
  AmriTuner tuner(0b111, 3, paper_model(), fast_options());
  for (int i = 0; i < 1000; ++i) tuner.observe_request(0b100);
  const auto d = tuner.maybe_tune(idx);
  EXPECT_FALSE(d.migrated);
  EXPECT_EQ(idx.config(), index::IndexConfig({0, 0, 6}));
}

TEST(AmriTuner, HysteresisBlocksMarginalImprovements) {
  TunerOptions o = fast_options();
  o.min_improvement = 0.99;  // require a 99% cost reduction
  index::BitAddressIndex idx(index::JoinAttributeSet({0, 1, 2}),
                             index::IndexConfig({5, 0, 1}));
  AmriTuner tuner(0b111, 3, paper_model(), o);
  for (int i = 0; i < 1000; ++i) tuner.observe_request(0b001);
  const auto d = tuner.maybe_tune(idx);
  EXPECT_FALSE(d.migrated);
}

// min_improvement is the one dead-band, with guardrails on too: a 50%
// modelled improvement that every enabled guardrail check would let fire
// stays below a 99% dead-band.
TEST(AmriTuner, GuardrailsKeepTheMinImprovementDeadband) {
  TunerOptions o = fast_options();
  o.min_improvement = 0.99;
  GuardrailOptions g;
  g.enabled = true;
  g.min_epochs_between_migrations = 1;
  g.amortize_horizon_units = std::numeric_limits<double>::infinity();
  g.epoch_time_budget_us = std::numeric_limits<double>::infinity();
  o.guardrails = g;
  index::BitAddressIndex idx(index::JoinAttributeSet({0, 1, 2}),
                             index::IndexConfig({5, 0, 1}));
  AmriTuner tuner(0b111, 3, paper_model(), o);
  for (int i = 0; i < 1000; ++i) tuner.observe_request(0b001);
  const auto d = tuner.maybe_tune(idx);
  ASSERT_TRUE(d.due);
  EXPECT_NEAR(d.recommended_cost / d.current_cost, 0.5, 0.1);
  EXPECT_EQ(d.verdict, GuardrailVerdict::kBelowDeadband);
  EXPECT_FALSE(d.migrated);
  EXPECT_EQ(idx.config(), index::IndexConfig({5, 0, 1}));
}

TEST(AmriTuner, RetentionKeepAccumulates) {
  TunerOptions o = fast_options();
  o.retention = StatsRetention::kKeep;
  AmriTuner tuner(0b111, 3, paper_model(), o);
  for (int i = 0; i < 600; ++i) tuner.observe_request(0b010);
  tuner.recommend(index::IndexConfig::zero(3));
  EXPECT_EQ(tuner.assessor().observed(), 600u);  // nothing reset
  for (int i = 0; i < 400; ++i) tuner.observe_request(0b010);
  EXPECT_EQ(tuner.assessor().observed(), 1000u);
}

TEST(AmriTuner, RetentionDecayAges) {
  TunerOptions o = fast_options();
  o.retention = StatsRetention::kDecay;
  o.decay_factor = 0.5;
  AmriTuner tuner(0b111, 3, paper_model(), o);
  for (int i = 0; i < 600; ++i) tuner.observe_request(0b010);
  tuner.recommend(index::IndexConfig::zero(3));
  EXPECT_NEAR(static_cast<double>(tuner.assessor().observed()), 300.0, 5.0);
}

TEST(AmriTuner, RetentionDecayAdaptsFasterThanKeep) {
  // Phase flip after a long history: decay mode must recommend the new
  // hot attribute, keep mode is still dominated by the old regime.
  auto run = [&](StatsRetention retention) {
    TunerOptions o = fast_options();
    o.retention = retention;
    o.decay_factor = 0.1;
    AmriTuner tuner(0b111, 3, paper_model(), o);
    for (int i = 0; i < 5000; ++i) tuner.observe_request(0b001);
    tuner.recommend(index::IndexConfig::zero(3));  // applies retention
    // New regime: 450 requests — under keep that is 450/5450 ~ 8% < theta
    // (invisible), under decay(0.1) it is 450/950 ~ 47% (dominant).
    for (int i = 0; i < 450; ++i) tuner.observe_request(0b100);
    return tuner.recommend(index::IndexConfig::zero(3)).recommended;
  };
  EXPECT_GT(run(StatsRetention::kDecay).bits(2), 0);
  EXPECT_EQ(run(StatsRetention::kKeep).bits(2), 0);
}

TEST(AmriTuner, StatsResetAfterDecision) {
  AmriTuner tuner(0b111, 3, paper_model(), fast_options());
  for (int i = 0; i < 600; ++i) tuner.observe_request(0b010);
  tuner.recommend(index::IndexConfig::zero(3));
  EXPECT_EQ(tuner.assessor().observed(), 0u);
  EXPECT_FALSE(tuner.tuning_due());
}

TEST(AmriTuner, TracksStatisticsMemory) {
  MemoryTracker mem;
  {
    AmriTuner tuner(0b11111, 5, paper_model(), fast_options(), &mem);
    Rng rng(3);
    for (int i = 0; i < 400; ++i) {
      tuner.observe_request(static_cast<AttrMask>(rng.below(32)));
    }
    EXPECT_GT(mem.category(MemCategory::kStatistics), 0u);
  }
  EXPECT_EQ(mem.category(MemCategory::kStatistics), 0u);
}

TEST(AmriTuner, AdaptsAcrossWorkloadShift) {
  index::BitAddressIndex idx(index::JoinAttributeSet({0, 1, 2}),
                             index::IndexConfig({6, 0, 0}));
  AmriTuner tuner(0b111, 3, paper_model(), fast_options());
  // Phase 1: all requests bind A -> stays on A.
  for (int i = 0; i < 1000; ++i) tuner.observe_request(0b001);
  tuner.maybe_tune(idx);
  EXPECT_GT(idx.config().bits(0), 0);
  // Phase 2: workload flips to B.
  for (int i = 0; i < 1000; ++i) tuner.observe_request(0b010);
  tuner.maybe_tune(idx);
  EXPECT_GT(idx.config().bits(1), 0);
  EXPECT_EQ(idx.config().bits(0), 0);
}

// ---- Assessor cells: a state's (query, shard) grid inside the tuner -----

constexpr std::size_t kQueries = 2;
constexpr std::size_t kShards = 3;

struct CellRequest {
  AttrMask ap = 0;
  std::size_t query = 0;
  std::size_t shard = 0;
};

/// A drifting request stream over 3 attributes (the hot pattern moves
/// every 700 requests) with random (query, shard) attribution.
std::vector<CellRequest> cell_stream(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  const AttrMask hot[] = {0b001, 0b110, 0b100, 0b011, 0b010};
  std::vector<CellRequest> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    CellRequest r;
    r.ap = rng.below(10) < 7 ? hot[(i / 700) % 5]
                             : static_cast<AttrMask>(1 + rng.below(7));
    r.query = rng.below(kQueries);
    r.shard = rng.below(kShards);
    out.push_back(r);
  }
  return out;
}

TEST(AmriTunerCells, GridDecidesLikeOneCell) {
  // SRIA and DIA counts add exactly, so merging 2 queries x 3 shards of
  // cells must reproduce a one-cell tuner fed the same stream bit for bit,
  // whether retention resets or keeps the cells.
  for (const auto kind :
       {assessment::AssessorKind::kSria, assessment::AssessorKind::kDia}) {
    for (const auto retention :
         {StatsRetention::kReset, StatsRetention::kKeep}) {
      SCOPED_TRACE(assessment::assessor_kind_name(kind) +
                   (retention == StatsRetention::kReset ? " reset" : " keep"));
      TunerOptions o = fast_options();
      o.assessor = kind;
      o.retention = retention;
      AmriTuner one(0b111, 3, paper_model(), o);
      AmriTuner grid(0b111, 3, paper_model(), o, nullptr, nullptr, 0,
                     kQueries, kShards);
      index::BitAddressIndex one_idx(index::JoinAttributeSet({0, 1, 2}),
                                     index::IndexConfig({2, 2, 2}));
      index::BitAddressIndex grid_idx(index::JoinAttributeSet({0, 1, 2}),
                                      index::IndexConfig({2, 2, 2}));
      testutil::TuplePool pool(200, 3, 50, 77);
      for (const Tuple* t : pool.pointers()) {
        one_idx.insert(t);
        grid_idx.insert(t);
      }

      std::size_t decisions = 0;
      for (const CellRequest& r : cell_stream(91, 3500)) {
        one.observe_request(r.ap);
        grid.observe_request(r.ap, r.query, r.shard);
        ASSERT_EQ(one.tuning_due(), grid.tuning_due());
        if (!one.tuning_due()) continue;
        const TuneDecision a = one.maybe_tune(one_idx);
        const TuneDecision b = grid.maybe_tune(grid_idx);
        EXPECT_EQ(a.recommended, b.recommended) << "decision " << decisions;
        EXPECT_EQ(a.recommended_cost, b.recommended_cost)
            << "decision " << decisions;
        EXPECT_EQ(a.current_cost, b.current_cost) << "decision " << decisions;
        EXPECT_EQ(a.frequent_patterns, b.frequent_patterns)
            << "decision " << decisions;
        EXPECT_EQ(a.migrated, b.migrated) << "decision " << decisions;
        ++decisions;
      }
      EXPECT_GE(decisions, 5u);
      EXPECT_GT(one.migrations(), 0u);
      EXPECT_EQ(one.migrations(), grid.migrations());
      EXPECT_EQ(one_idx.config(), grid_idx.config());
    }
  }
}

TEST(AmriTunerCells, QuerySharesSplitEachEpoch) {
  TunerOptions o = fast_options();
  AmriTuner grid(0b111, 3, paper_model(), o, nullptr, nullptr, 0, kQueries,
                 kShards);
  AmriTuner one(0b111, 3, paper_model(), o);
  std::vector<std::uint64_t> expected(kQueries, 0);
  std::size_t decisions = 0;
  for (const CellRequest& r : cell_stream(92, 3000)) {
    grid.observe_request(r.ap, r.query, r.shard);
    one.observe_request(r.ap);
    ++expected[r.query];
    if (!grid.tuning_due()) continue;
    const TuneDecision d = grid.recommend(index::IndexConfig::zero(3));
    ASSERT_EQ(d.query_shares.size(), kQueries);
    std::uint64_t total = 0;
    for (std::size_t q = 0; q < kQueries; ++q) {
      EXPECT_EQ(d.query_shares[q].query, q);
      EXPECT_EQ(d.query_shares[q].requests, expected[q]);
      total += d.query_shares[q].requests;
    }
    EXPECT_EQ(total, o.reassess_every);
    expected.assign(kQueries, 0);
    // A single-query tuner attaches no shares.
    EXPECT_TRUE(
        one.recommend(index::IndexConfig::zero(3)).query_shares.empty());
    ++decisions;
  }
  EXPECT_GE(decisions, 5u);
}

TEST(AmriTunerCells, StatisticsMemoryCoversEveryCell) {
  // A mirror grid fed the same requests, with the same retention applied
  // at every decision, predicts the tracker's kStatistics bytes exactly.
  for (const auto retention :
       {StatsRetention::kReset, StatsRetention::kDecay}) {
    SCOPED_TRACE(retention == StatsRetention::kReset ? "reset" : "decay");
    TunerOptions o = fast_options();
    o.retention = retention;
    o.decay_factor = 0.5;
    MemoryTracker mem;
    {
      AmriTuner grid(0b111, 3, paper_model(), o, &mem, nullptr, 0, kQueries,
                     kShards);
      std::vector<std::unique_ptr<assessment::Assessor>> mirror;
      for (std::size_t i = 0; i < kQueries * kShards; ++i) {
        mirror.push_back(
            assessment::make_assessor(o.assessor, 0b111, o.assessor_params));
      }
      std::size_t decisions = 0;
      for (const CellRequest& r : cell_stream(93, 3100)) {
        grid.observe_request(r.ap, r.query, r.shard);
        mirror[r.query * kShards + r.shard]->observe(r.ap);
        if (grid.tuning_due()) {
          grid.recommend(index::IndexConfig::zero(3));
          for (auto& cell : mirror) {
            if (retention == StatsRetention::kReset) {
              cell->reset();
            } else {
              cell->decay(o.decay_factor);
            }
          }
          ++decisions;
        }
        std::size_t bytes = 0;
        for (const auto& cell : mirror) bytes += cell->approx_bytes();
        ASSERT_EQ(mem.category(MemCategory::kStatistics), bytes)
            << "after decision " << decisions;
      }
      EXPECT_GE(decisions, 5u);
      EXPECT_GT(mem.category(MemCategory::kStatistics), 0u);
    }
    EXPECT_EQ(mem.category(MemCategory::kStatistics), 0u);
  }
}

TEST(AmriTunerCells, OneCellMergeMatchesAssessorResults) {
  // A plain state's tuner merges its single cell at every decision, so
  // the merge of one snapshot must answer exactly like that assessor's
  // results(), for every kind and after decay too: same patterns, counts,
  // error bounds, frequencies and order, over as many entries as the
  // assessor retains.
  using assessment::AssessorKind;
  for (const auto kind :
       {AssessorKind::kSria, AssessorKind::kCsria, AssessorKind::kDia,
        AssessorKind::kCdiaRandom, AssessorKind::kCdiaHighestCount}) {
    SCOPED_TRACE(assessment::assessor_kind_name(kind));
    assessment::AssessorParams params;
    params.epsilon = 0.02;
    auto cell = assessment::make_assessor(kind, 0b1111, params);
    Rng rng(94);
    for (std::size_t round = 0; round < 6; ++round) {
      for (int i = 0; i < 700; ++i) {
        cell->observe(rng.below(10) < 6
                          ? static_cast<AttrMask>(1 + round % 15)
                          : static_cast<AttrMask>(rng.below(16)));
      }
      if (round % 2 == 1) cell->decay(0.5);
      const auto merged = assessment::merge_snapshots({cell->snapshot()});
      EXPECT_EQ(merged.entries.size(), cell->table_size()) << round;
      for (const double theta : {0.02, 0.1, 0.3}) {
        const auto got = assessment::snapshot_results(merged, theta);
        const auto want = cell->results(theta);
        ASSERT_EQ(got.size(), want.size()) << round << " theta " << theta;
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].mask, want[i].mask) << round << " #" << i;
          EXPECT_EQ(got[i].count, want[i].count) << round << " #" << i;
          EXPECT_EQ(got[i].max_error, want[i].max_error) << round << " #" << i;
          EXPECT_EQ(got[i].frequency, want[i].frequency) << round << " #" << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace amri::tuner
