// Property tests for index selection: budget respected, more budget never
// hurts, and the exhaustive kernel is bit-identical to brute-force
// evaluation over the whole allocation space.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>

#include "common/rng.hpp"
#include "index/index_optimizer.hpp"

namespace amri::index {
namespace {

std::vector<PatternFrequency> random_patterns(Rng& rng, int n_attrs) {
  std::vector<PatternFrequency> out;
  const AttrMask universe = low_bits(n_attrs);
  double remaining = 1.0;
  for (AttrMask m = 1; m <= universe; ++m) {
    if (!rng.chance(0.4)) continue;
    const double f = rng.uniform01() * remaining * 0.5;
    out.push_back({m, f});
    remaining -= f;
  }
  // Renormalise.
  double total = 0.0;
  for (const auto& p : out) total += p.frequency;
  if (total > 0) {
    for (auto& p : out) p.frequency /= total;
  }
  return out;
}

WorkloadParams params_for(Rng& rng) {
  WorkloadParams p;
  p.lambda_d = 50.0 + rng.uniform01() * 500.0;
  p.lambda_r = 50.0 + rng.uniform01() * 500.0;
  p.window_units = 1.0 + rng.uniform01() * 30.0;
  p.hash_cost = 0.5 + rng.uniform01();
  p.compare_cost = 0.05 + rng.uniform01() * 0.5;
  return p;
}

class OptimizerProperty : public ::testing::TestWithParam<int> {};

TEST_P(OptimizerProperty, InvariantsHold) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 7);
  const int n_attrs = 3;
  const auto patterns = random_patterns(rng, n_attrs);
  const CostModel model(params_for(rng));

  OptimizerOptions opts;
  opts.bit_budget = 1 + static_cast<int>(rng.below(10));
  opts.max_bits_per_attr = 1 + static_cast<int>(rng.below(8));
  const IndexOptimizer opt(model, opts);

  const auto ex = opt.optimize(n_attrs, patterns);

  // Budget and per-attribute caps respected.
  EXPECT_LE(ex.config.total_bits(), opts.bit_budget);
  for (std::size_t a = 0; a < 3; ++a) {
    EXPECT_LE(ex.config.bits(a), opts.max_bits_per_attr);
  }

  // Brute-force verification of the exhaustive optimum.
  double best = std::numeric_limits<double>::infinity();
  enumerate_allocations(3, opts.bit_budget, opts.max_bits_per_attr,
                        [&](const std::vector<std::uint8_t>& alloc) {
                          best = std::min(
                              best, model.paper_cost(IndexConfig(alloc),
                                                     patterns));
                        });
  EXPECT_NEAR(ex.cost, best, 1e-9);

  // More budget never yields a worse optimum (the search space grows).
  OptimizerOptions bigger = opts;
  bigger.bit_budget = opts.bit_budget + 2;
  const IndexOptimizer opt2(model, bigger);
  EXPECT_LE(opt2.optimize(n_attrs, patterns).cost, ex.cost + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerProperty, ::testing::Range(1, 13));

// ---- Exactness: optimize() against the brute-force reference -----------

/// The search optimize() replaced: every allocation from
/// enumerate_allocations, costed by CostModel, first minimum kept, top-k by
/// upper_bound insertion.
OptimizerResult reference_optimize(const CostModel& model,
                                   const OptimizerOptions& opts,
                                   std::size_t n_attrs,
                                   const std::vector<PatternFrequency>& pats) {
  OptimizerResult result;
  result.cost = std::numeric_limits<double>::infinity();
  enumerate_allocations(
      n_attrs, opts.bit_budget, opts.max_bits_per_attr,
      [&](const std::vector<std::uint8_t>& alloc) {
        const IndexConfig ic(alloc);
        const double cost = opts.use_extended_cost
                                ? model.extended_cost(ic, pats)
                                : model.paper_cost(ic, pats);
        ++result.configs_evaluated;
        if (opts.track_top_k > 0 &&
            (result.top.size() < opts.track_top_k ||
             cost < result.top.back().cost)) {
          const auto at = std::upper_bound(
              result.top.begin(), result.top.end(), cost,
              [](double c, const ScoredConfig& s) { return c < s.cost; });
          result.top.insert(at, ScoredConfig{ic, cost});
          if (result.top.size() > opts.track_top_k) result.top.pop_back();
        }
        if (cost < result.cost) {
          result.cost = cost;
          result.config = ic;
        }
      });
  return result;
}

std::uint64_t bits_of(double d) { return std::bit_cast<std::uint64_t>(d); }

void expect_identical(const OptimizerResult& got, const OptimizerResult& want) {
  EXPECT_EQ(got.config, want.config)
      << got.config.to_string() << " vs " << want.config.to_string();
  EXPECT_EQ(bits_of(got.cost), bits_of(want.cost))
      << got.cost << " vs " << want.cost;
  EXPECT_EQ(got.configs_evaluated, want.configs_evaluated);
  ASSERT_EQ(got.top.size(), want.top.size());
  for (std::size_t i = 0; i < got.top.size(); ++i) {
    EXPECT_EQ(got.top[i].config, want.top[i].config) << "top[" << i << "]";
    EXPECT_EQ(bits_of(got.top[i].cost), bits_of(want.top[i].cost))
        << "top[" << i << "]";
  }
}

/// Up to 12 distinct random masks over `n_attrs` attributes (plus,
/// sometimes, the full-scan mask 0 and a mask reaching past the JAS), with
/// random unnormalised frequencies.
std::vector<PatternFrequency> random_wide_patterns(Rng& rng, int n_attrs) {
  const AttrMask universe = low_bits(n_attrs);
  std::vector<PatternFrequency> out;
  const std::size_t want = rng.below(13);
  for (std::size_t i = 0; i < want; ++i) {
    const AttrMask m = static_cast<AttrMask>(rng.below(universe)) + 1;
    out.push_back({m, rng.uniform01()});
  }
  if (rng.chance(0.3)) out.push_back({0, rng.uniform01()});
  if (rng.chance(0.3)) {
    out.push_back({static_cast<AttrMask>(1u << n_attrs) | 1u, rng.uniform01()});
  }
  return out;
}

class OptimizerExactness : public ::testing::TestWithParam<int> {};

TEST_P(OptimizerExactness, KernelMatchesBruteForceBitForBit) {
  const int n_attrs = GetParam();
  Rng rng(static_cast<std::uint64_t>(n_attrs) * 7919 + 3);
  for (int budget = 0; budget <= 12; ++budget) {
    const auto patterns = random_wide_patterns(rng, n_attrs);
    WorkloadParams wp = params_for(rng);
    wp.bucket_cost = 0.01 + rng.uniform01() * 0.2;
    const CostModel model(wp);
    OptimizerOptions opts;
    opts.bit_budget = budget;
    // Caps keep the 9-attribute spaces test-sized; 0 pins the
    // all-zero-only space.
    opts.max_bits_per_attr =
        static_cast<int>(rng.below(static_cast<std::uint64_t>(
            std::min(budget, n_attrs > 6 ? 3 : 8) + 1)));
    for (const bool extended : {false, true}) {
      for (const std::size_t top_k : {std::size_t{0}, std::size_t{5}}) {
        SCOPED_TRACE(testing::Message()
                     << "n=" << n_attrs << " budget=" << budget
                     << " cap=" << opts.max_bits_per_attr
                     << " extended=" << extended << " top_k=" << top_k
                     << " patterns=" << patterns.size());
        opts.use_extended_cost = extended;
        opts.track_top_k = top_k;
        const IndexOptimizer opt(model, opts);
        expect_identical(opt.optimize(static_cast<std::size_t>(n_attrs),
                                      patterns),
                         reference_optimize(model, opts,
                                            static_cast<std::size_t>(n_attrs),
                                            patterns));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Attrs, OptimizerExactness, ::testing::Range(1, 10));

TEST(OptimizerExactness, SymmetricTieKeepsFirstMinimum) {
  // A and B are interchangeable: [A:1] and [B:1] cost the identical
  // double. Enumeration order visits [A:0 B:1 C:0] first, so it wins and
  // precedes [A:1 B:0 C:0] in the top list.
  WorkloadParams wp;
  wp.lambda_d = 100.0;
  wp.lambda_r = 100.0;
  wp.window_units = 10.0;
  wp.hash_cost = 1.0;
  wp.compare_cost = 0.5;
  const CostModel model(wp);
  OptimizerOptions opts;
  opts.bit_budget = 1;
  opts.max_bits_per_attr = 1;
  opts.track_top_k = 5;
  const std::vector<PatternFrequency> pats = {{0b001, 0.5}, {0b010, 0.5}};
  const auto r = IndexOptimizer(model, opts).optimize(3, pats);
  expect_identical(r, reference_optimize(model, opts, 3, pats));
  EXPECT_EQ(r.config, IndexConfig({0, 1, 0}));
  ASSERT_EQ(r.top.size(), 4u);
  EXPECT_EQ(r.top[1].config, IndexConfig({1, 0, 0}));
  EXPECT_EQ(bits_of(r.top[0].cost), bits_of(r.top[1].cost));
}

}  // namespace
}  // namespace amri::index
