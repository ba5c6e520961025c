#include "tuner/selector.hpp"

#include <algorithm>
#include <cmath>

namespace amri::tuner {

namespace {
// Engineering estimate of one flat-directory slot (inline bucket header +
// tag array) for the memory guardrail's what-if footprint. Deliberately a
// coarse model: the guard protects against directory blow-up from large
// bit budgets, not byte-exact accounting.
constexpr std::size_t kApproxBytesPerBucket = 64;

std::size_t directory_bytes(const index::IndexConfig& ic) {
  return static_cast<std::size_t>(ic.bucket_count()) * kApproxBytesPerBucket;
}
}  // namespace

std::string_view verdict_name(GuardrailVerdict v) {
  switch (v) {
    case GuardrailVerdict::kFired:
      return "fired";
    case GuardrailVerdict::kNoChange:
      return "no_change";
    case GuardrailVerdict::kBelowDeadband:
      return "below_deadband";
    case GuardrailVerdict::kHysteresis:
      return "hysteresis";
    case GuardrailVerdict::kNotAmortized:
      return "not_amortized";
    case GuardrailVerdict::kTimeBudget:
      return "time_budget";
    case GuardrailVerdict::kMemoryBudget:
      return "memory_budget";
  }
  return "unknown";
}

Selection GuardrailSelector::select(const Evaluation& eval,
                                    const index::IndexConfig& current,
                                    const WhatIfContext& ctx) {
  ++epoch_;

  Selection s;
  s.modelled_benefit_us = eval.current_cost - eval.best_cost;
  // What-if rebuild pause: exactly the charge IndexMigrator will bill —
  // every stored tuple re-inserted at one hash per indexed attribute.
  s.migration_cost_us = static_cast<double>(ctx.stored_tuples) *
                        static_cast<double>(eval.best.indexed_attr_count()) *
                        hash_cost_;

  const bool budgeted =
      options_.enabled && options_.epoch_time_budget_us !=
                              std::numeric_limits<double>::infinity();
  if (budgeted) {
    budget_us_ =
        std::min(budget_us_ + options_.epoch_time_budget_us,
                 options_.epoch_time_budget_us * options_.burst_epochs);
  }
  s.budget_spent_us = budget_spent_total_us_;
  s.budget_remaining_us = budget_us_;

  if (eval.best == current) {
    s.verdict = GuardrailVerdict::kNoChange;
    return s;
  }

  // Benefit dead-band — identical to the legacy AmriTuner migration rule,
  // applied whether or not the production guardrails are enabled.
  if (!(eval.best_cost < eval.current_cost * (1.0 - deadband_))) {
    s.verdict = GuardrailVerdict::kBelowDeadband;
    return s;
  }

  if (options_.enabled) {
    // Hysteresis: enforce a refractory window after each migration.
    if (migrated_once_ && epoch_ - last_migration_epoch_ <
                              options_.min_epochs_between_migrations) {
      s.verdict = GuardrailVerdict::kHysteresis;
      ++suppressed_;
      return s;
    }

    // Amortization: the pause must be repaid within the horizon by the
    // modelled benefit rate (µs saved per cost-model time unit).
    s.amortize_units =
        s.modelled_benefit_us > 0.0
            ? s.migration_cost_us / s.modelled_benefit_us
            : std::numeric_limits<double>::infinity();
    if (s.amortize_units > options_.amortize_horizon_units) {
      s.verdict = GuardrailVerdict::kNotAmortized;
      ++suppressed_;
      return s;
    }

    // Memory budget: modelled post-migration footprint = live bytes plus
    // the directory growth of the target IC.
    if (options_.state_memory_budget_bytes !=
        std::numeric_limits<std::size_t>::max()) {
      const std::size_t cur_dir = directory_bytes(current);
      const std::size_t new_dir = directory_bytes(eval.best);
      const std::size_t grown =
          new_dir > cur_dir ? new_dir - cur_dir : std::size_t{0};
      if (ctx.state_bytes + grown > options_.state_memory_budget_bytes) {
        s.verdict = GuardrailVerdict::kMemoryBudget;
        ++suppressed_;
        return s;
      }
    }

    // Time budget: spend the what-if cost from the token bucket.
    if (budgeted && s.migration_cost_us > budget_us_) {
      s.verdict = GuardrailVerdict::kTimeBudget;
      ++suppressed_;
      return s;
    }
    if (budgeted) {
      budget_us_ -= s.migration_cost_us;
      budget_spent_total_us_ += s.migration_cost_us;
      s.budget_spent_us = budget_spent_total_us_;
      s.budget_remaining_us = budget_us_;
    }
  }

  migrated_once_ = true;
  last_migration_epoch_ = epoch_;
  s.migrate = true;
  s.verdict = GuardrailVerdict::kFired;
  return s;
}

}  // namespace amri::tuner
