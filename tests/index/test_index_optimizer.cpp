#include "index/index_optimizer.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace amri::index {
namespace {

WorkloadParams params() {
  WorkloadParams p;
  p.lambda_d = 100.0;
  p.lambda_r = 100.0;
  p.window_units = 10.0;
  p.hash_cost = 1.0;
  p.compare_cost = 0.5;
  return p;
}

TEST(IndexOptimizer, AllBitsToTheOnlyPattern) {
  const CostModel model(params());
  OptimizerOptions opts;
  opts.bit_budget = 6;
  opts.max_bits_per_attr = 6;
  const IndexOptimizer opt(model, opts);
  const auto r = opt.optimize(3, {{0b001, 1.0}});
  // Every useful bit goes to attribute 0; others get nothing.
  EXPECT_EQ(r.config.bits(0), 6);
  EXPECT_EQ(r.config.bits(1), 0);
  EXPECT_EQ(r.config.bits(2), 0);
}

TEST(IndexOptimizer, NoPatternsMeansNoBits) {
  const CostModel model(params());
  OptimizerOptions opts;
  opts.bit_budget = 8;
  const IndexOptimizer opt(model, opts);
  const auto r = opt.optimize(3, {});
  // With no search workload, any bit only adds maintenance cost.
  EXPECT_EQ(r.config.total_bits(), 0);
}

TEST(IndexOptimizer, PaperTableTwoCsriaOutcome) {
  // CSRIA deletes <A,*,*> and <A,B,*>; surviving patterns (renormalised)
  // are B:10%, C:10%, AC:16%, BC:10%, ABC:46%. Paper: best 4-bit IC has
  // B=1 bit, C=3 bits (A nothing).
  WorkloadParams p;
  p.lambda_d = 1000.0;
  p.lambda_r = 1000.0;
  p.window_units = 10.0;
  p.hash_cost = 1.0;
  p.compare_cost = 1.0;
  const CostModel model(p);
  OptimizerOptions opts;
  opts.bit_budget = 4;
  opts.max_bits_per_attr = 4;
  const IndexOptimizer opt(model, opts);
  const double total = 0.10 + 0.10 + 0.16 + 0.10 + 0.46;
  const std::vector<PatternFrequency> survivors = {
      {0b010, 0.10 / total}, {0b100, 0.10 / total}, {0b101, 0.16 / total},
      {0b110, 0.10 / total}, {0b111, 0.46 / total}};
  const auto r = opt.optimize(3, survivors);
  EXPECT_EQ(r.config.bits(0), 0);
  EXPECT_EQ(r.config.bits(1), 1);
  EXPECT_EQ(r.config.bits(2), 3);
}

TEST(IndexOptimizer, PaperTableTwoCdiaOutcome) {
  // CDIA keeps A's mass (8% on <A,*,*>). Paper: true optimum is A=1, B=1,
  // C=2 bits.
  WorkloadParams p;
  p.lambda_d = 1000.0;
  p.lambda_r = 1000.0;
  p.window_units = 10.0;
  p.hash_cost = 1.0;
  p.compare_cost = 1.0;
  const CostModel model(p);
  OptimizerOptions opts;
  opts.bit_budget = 4;
  opts.max_bits_per_attr = 4;
  const IndexOptimizer opt(model, opts);
  const double total = 0.08 + 0.10 + 0.10 + 0.16 + 0.10 + 0.46;
  const std::vector<PatternFrequency> survivors = {
      {0b001, 0.08 / total}, {0b010, 0.10 / total}, {0b100, 0.10 / total},
      {0b101, 0.16 / total}, {0b110, 0.10 / total}, {0b111, 0.46 / total}};
  const auto r = opt.optimize(3, survivors);
  EXPECT_EQ(r.config.bits(0), 1);
  EXPECT_EQ(r.config.bits(1), 1);
  EXPECT_EQ(r.config.bits(2), 2);
}

TEST(IndexOptimizer, BudgetRespected) {
  const CostModel model(params());
  OptimizerOptions opts;
  opts.bit_budget = 3;
  opts.max_bits_per_attr = 3;
  const IndexOptimizer opt(model, opts);
  const auto r = opt.optimize(
      4, {{0b0001, 0.25}, {0b0010, 0.25}, {0b0100, 0.25}, {0b1000, 0.25}});
  EXPECT_LE(r.config.total_bits(), 3);
}

TEST(IndexOptimizer, RejectsBudgetOutsideIcRange) {
  const CostModel model(params());
  OptimizerOptions opts;
  opts.bit_budget = -1;
  EXPECT_THROW(IndexOptimizer(model, opts), std::invalid_argument);
  opts.bit_budget = IndexConfig::kMaxTotalBits + 1;
  EXPECT_THROW(IndexOptimizer(model, opts), std::invalid_argument);
  opts.bit_budget = 0;
  EXPECT_NO_THROW(IndexOptimizer(model, opts));
  opts.bit_budget = IndexConfig::kMaxTotalBits;
  EXPECT_NO_THROW(IndexOptimizer(model, opts));
}

TEST(IndexOptimizer, RejectsNegativePerAttributeCap) {
  const CostModel model(params());
  OptimizerOptions opts;
  opts.max_bits_per_attr = -1;
  EXPECT_THROW(IndexOptimizer(model, opts), std::invalid_argument);
  opts.max_bits_per_attr = 0;
  EXPECT_NO_THROW(IndexOptimizer(model, opts));
}

TEST(IndexOptimizer, RejectsMoreAttributesThanTheMaskHolds) {
  const CostModel model(params());
  OptimizerOptions opts;
  opts.bit_budget = 1;
  const IndexOptimizer opt(model, opts);
  constexpr std::size_t kWidth = std::numeric_limits<AttrMask>::digits;
  EXPECT_THROW(opt.optimize(kWidth + 1, {}), std::invalid_argument);
  // The full mask width is fine: the zero allocation plus one bit on each.
  EXPECT_EQ(opt.optimize(kWidth, {}).configs_evaluated, kWidth + 1);
}

TEST(IndexOptimizer, SelectHashModulesTopKByFrequency) {
  const std::vector<PatternFrequency> pats = {
      {0b001, 0.1}, {0b010, 0.4}, {0b100, 0.3}, {0b111, 0.2}};
  const auto masks = IndexOptimizer::select_hash_modules(pats, 2);
  ASSERT_EQ(masks.size(), 2u);
  EXPECT_EQ(masks[0], 0b010u);
  EXPECT_EQ(masks[1], 0b100u);
}

TEST(IndexOptimizer, SelectHashModulesSkipsFullScanPattern) {
  const std::vector<PatternFrequency> pats = {{0, 0.9}, {0b001, 0.1}};
  const auto masks = IndexOptimizer::select_hash_modules(pats, 2);
  ASSERT_EQ(masks.size(), 1u);
  EXPECT_EQ(masks[0], 0b001u);
}

TEST(IndexOptimizer, SelectHashModulesDedupes) {
  const std::vector<PatternFrequency> pats = {{0b001, 0.5}, {0b001, 0.5}};
  const auto masks = IndexOptimizer::select_hash_modules(pats, 3);
  EXPECT_EQ(masks.size(), 1u);
}

}  // namespace
}  // namespace amri::index
