// Property tests for the guardrail selector (tuner/selector.hpp): 10,000
// randomized snapshot sequences — random evaluations, random contexts,
// random guardrail settings — checked against the selector's invariants
// after every decision:
//
//   * a migration never fires below the benefit dead-band;
//   * two migrations of one state never land within the hysteresis
//     window;
//   * a fired migration always amortizes within the horizon, fits the
//     memory budget, and is covered by the time-budget bucket (which
//     never goes negative);
//   * `suppressed` counts exactly the guardrail-blocked verdicts
//     (hysteresis / not-amortized / budgets), never dead-band rejections;
//   * with guardrails disabled the selector is the legacy migration rule.
#include "tuner/selector.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.hpp"

namespace amri::tuner {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

index::IndexConfig random_ic(Rng& rng, std::size_t num_attrs, int budget) {
  std::vector<std::uint8_t> bits(num_attrs, 0);
  const int total = static_cast<int>(rng.below(budget + 1));
  for (int i = 0; i < total; ++i) {
    ++bits[rng.below(num_attrs)];
  }
  return index::IndexConfig(bits);
}

GuardrailOptions random_guardrails(Rng& rng, double& deadband) {
  GuardrailOptions g;
  g.enabled = rng.below(4) != 0;  // mostly on; some pure-legacy sequences
  deadband = 0.3 * rng.uniform01();
  g.min_epochs_between_migrations = 1 + rng.below(8);
  g.amortize_horizon_units = rng.below(2) != 0 ? 1e9 : 50.0 * rng.uniform01();
  g.epoch_time_budget_us = rng.below(2) != 0 ? kInf : 200.0 * rng.uniform01();
  g.burst_epochs = 1.0 + static_cast<double>(rng.below(8));
  g.state_memory_budget_bytes =
      rng.below(2) != 0 ? std::numeric_limits<std::size_t>::max()
                        : 1024 + rng.below(1 << 16);
  return g;
}

Evaluation random_evaluation(Rng& rng, std::size_t num_attrs, int budget) {
  Evaluation e;
  e.best = random_ic(rng, num_attrs, budget);
  e.current_cost = 1.0 + 5000.0 * rng.uniform01();
  // Half the draws are improvements, half regressions/noise near zero.
  e.best_cost = e.current_cost * (rng.below(2) != 0 ? rng.uniform01()
                                                    : 0.9 + rng.uniform01());
  return e;
}

bool is_suppressed_verdict(GuardrailVerdict v) {
  return v == GuardrailVerdict::kHysteresis ||
         v == GuardrailVerdict::kNotAmortized ||
         v == GuardrailVerdict::kTimeBudget ||
         v == GuardrailVerdict::kMemoryBudget;
}

TEST(SelectorGuardrailsProperty, InvariantsHoldOverRandomizedSequences) {
  constexpr int kSequences = 10000;
  constexpr int kEpochsPerSequence = 10;
  constexpr std::size_t kNumAttrs = 3;
  constexpr int kBitBudget = 8;
  constexpr double kHashCost = 1.0;
  Rng rng(0xd1ce);

  std::uint64_t fired_total = 0;
  std::uint64_t suppressed_total = 0;
  for (int seq = 0; seq < kSequences; ++seq) {
    double deadband = 0.0;
    const GuardrailOptions g = random_guardrails(rng, deadband);
    GuardrailSelector selector(g, deadband, kHashCost);
    std::uint64_t last_fire_epoch = 0;
    bool fired_once = false;
    std::uint64_t suppressed_before = 0;

    for (int epoch = 0; epoch < kEpochsPerSequence; ++epoch) {
      const Evaluation eval = random_evaluation(rng, kNumAttrs, kBitBudget);
      const index::IndexConfig current =
          random_ic(rng, kNumAttrs, kBitBudget);
      WhatIfContext ctx;
      ctx.stored_tuples = rng.below(500);
      ctx.state_bytes = rng.below(1 << 17);

      const Selection s = selector.select(eval, current, ctx);

      // The selector's epoch clock ticks exactly once per select().
      ASSERT_EQ(selector.epoch(), static_cast<std::uint64_t>(epoch + 1));

      if (s.migrate) {
        ASSERT_EQ(s.verdict, GuardrailVerdict::kFired);
        // Never migrates to the current IC.
        ASSERT_FALSE(eval.best == current);
        // Never migrates below the dead-band.
        ASSERT_LT(eval.best_cost,
                  eval.current_cost * (1.0 - deadband));
        if (g.enabled) {
          // Never two migrations within the hysteresis window.
          if (fired_once) {
            ASSERT_GE(selector.epoch() - last_fire_epoch,
                      g.min_epochs_between_migrations);
          }
          // A fired migration amortizes within the horizon...
          ASSERT_LE(s.amortize_units, g.amortize_horizon_units);
          // ...and was covered by the token bucket.
          ASSERT_GE(s.budget_remaining_us, 0.0);
        }
        fired_once = true;
        last_fire_epoch = selector.epoch();
        ++fired_total;
      } else {
        ASSERT_NE(s.verdict, GuardrailVerdict::kFired);
      }

      // `suppressed` counts exactly the guardrail-blocked verdicts.
      const std::uint64_t delta = selector.suppressed() - suppressed_before;
      ASSERT_EQ(delta, is_suppressed_verdict(s.verdict) ? 1u : 0u)
          << verdict_name(s.verdict);
      suppressed_before = selector.suppressed();

      // Guardrail verdicts require guardrails.
      if (!g.enabled) {
        ASSERT_FALSE(is_suppressed_verdict(s.verdict));
        // Disabled selector == the legacy migration rule, exactly.
        const bool legacy_migrates =
            !(eval.best == current) &&
            eval.best_cost < eval.current_cost * (1.0 - deadband);
        ASSERT_EQ(s.migrate, legacy_migrates);
      }

      // The bucket never goes negative and spend only grows.
      ASSERT_GE(s.budget_remaining_us, 0.0);
      ASSERT_GE(s.budget_spent_us, 0.0);
    }
    suppressed_total += selector.suppressed();
  }
  // The randomization must actually exercise both outcomes.
  EXPECT_GT(fired_total, 0u);
  EXPECT_GT(suppressed_total, 0u);
}

TEST(SelectorGuardrails, HysteresisSpacingIsExact) {
  GuardrailOptions g;
  g.enabled = true;
  g.min_epochs_between_migrations = 4;
  g.amortize_horizon_units = kInf;
  g.epoch_time_budget_us = kInf;
  GuardrailSelector selector(g, 0.02, 1.0);

  // Every epoch proposes the same large improvement away from `current`.
  Evaluation eval;
  eval.best = index::IndexConfig({0, 0, 8});
  eval.best_cost = 10.0;
  eval.current_cost = 100.0;
  const index::IndexConfig current({8, 0, 0});
  WhatIfContext ctx;
  ctx.stored_tuples = 100;

  std::vector<std::uint64_t> fire_epochs;
  for (int i = 0; i < 20; ++i) {
    if (selector.select(eval, current, ctx).migrate) {
      fire_epochs.push_back(selector.epoch());
    }
  }
  ASSERT_EQ(fire_epochs.size(), 5u);  // epochs 1, 5, 9, 13, 17
  for (std::size_t i = 1; i < fire_epochs.size(); ++i) {
    EXPECT_EQ(fire_epochs[i] - fire_epochs[i - 1], 4u);
  }
}

TEST(SelectorGuardrails, TimeBudgetRefillsAtTheConfiguredRate) {
  GuardrailOptions g;
  g.enabled = true;
  g.min_epochs_between_migrations = 1;
  g.amortize_horizon_units = kInf;
  g.epoch_time_budget_us = 10.0;
  g.burst_epochs = 10.0;  // bucket starts (and caps) at 100 µs
  GuardrailSelector selector(g, 0.02, 1.0);

  Evaluation eval;
  eval.best = index::IndexConfig({0, 8, 0});
  eval.best_cost = 10.0;
  eval.current_cost = 100.0;
  const index::IndexConfig current({8, 0, 0});
  WhatIfContext ctx;
  ctx.stored_tuples = 90;  // what-if cost 90 µs per migration

  // Epoch 1: bucket 100+10 capped at 100 -> fires, leaves 10.
  EXPECT_TRUE(selector.select(eval, current, ctx).migrate);
  // Epochs 2..8: 10 µs accrual each reaches 20..80, under 90 -> suppressed.
  for (int i = 0; i < 7; ++i) {
    const Selection s = selector.select(eval, current, ctx);
    EXPECT_EQ(s.verdict, GuardrailVerdict::kTimeBudget);
  }
  // Epoch 9: bucket back to exactly 90 -> fires again.
  EXPECT_TRUE(selector.select(eval, current, ctx).migrate);
  EXPECT_EQ(selector.suppressed(), 7u);
}

TEST(SelectorGuardrails, MemoryBudgetBlocksDirectoryGrowth) {
  GuardrailOptions g;
  g.enabled = true;
  g.min_epochs_between_migrations = 1;
  g.amortize_horizon_units = kInf;
  g.epoch_time_budget_us = kInf;
  g.state_memory_budget_bytes = 20000;
  GuardrailSelector selector(g, 0.02, 1.0);

  Evaluation eval;
  eval.best = index::IndexConfig({0, 8, 0});  // 256 buckets -> 16 KiB dir
  eval.best_cost = 10.0;
  eval.current_cost = 100.0;
  const index::IndexConfig current({2, 0, 0});  // 4 buckets
  WhatIfContext ctx;
  ctx.stored_tuples = 10;

  ctx.state_bytes = 1000;  // 1000 + ~16 KiB growth fits under 20000
  EXPECT_TRUE(selector.select(eval, current, ctx).migrate);
  ctx.state_bytes = 10000;  // growth would cross the budget
  const Selection s = selector.select(eval, current, ctx);
  EXPECT_EQ(s.verdict, GuardrailVerdict::kMemoryBudget);
  EXPECT_FALSE(s.migrate);
}

}  // namespace
}  // namespace amri::tuner
