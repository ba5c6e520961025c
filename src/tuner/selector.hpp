// Migration selection: the tuner's last step. Given one decision's
// Evaluation — the cheapest IC the optimizer found and the Eq. 1 costs of
// it and of the current IC — the selector decides whether the recommended
// IC actually fires, applying the production guardrails the paper's
// always-migrate loop lacks:
//
//  * benefit dead-band — the hysteresis margin on modelled cost
//    improvement (TunerOptions::min_improvement; always on);
//  * migration hysteresis — a minimum number of decision epochs between
//    migrations of one state, so adversarial drift whose period matches
//    the tuning cadence cannot thrash the migrator;
//  * what-if migration costing — the rebuild pause is estimated from the
//    live state size (stored_tuples × N_A(target) × C_h, exactly what the
//    migrator will charge) and the migration only fires when the modelled
//    benefit rate amortizes it within a configurable horizon of cost-model
//    time units;
//  * per-epoch time budget — a token bucket of modelled migration
//    microseconds credited each epoch; a migration spends its what-if cost
//    from the bucket and is suppressed when the bucket cannot cover it;
//  * state-memory budget — migrations into ICs whose directory would
//    exceed the budgeted statistics+index footprint are suppressed.
//
// With `enabled == false` (the default) only the dead-band applies and
// the selector reproduces the legacy AmriTuner migration rule
// bit-for-bit: `best != current && best_cost < current_cost * (1 - deadband)`.
// The dead-band is one knob in both modes: the tuner passes its
// `min_improvement`.
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>

#include "index/index_config.hpp"

namespace amri::tuner {

/// One decision's scored recommendation, as the selector weighs it.
struct Evaluation {
  index::IndexConfig best;    ///< cheapest candidate found
  double best_cost = 0.0;     ///< modelled C_D of `best`
  double current_cost = 0.0;  ///< modelled C_D of the current IC
};

/// Why a recommended migration fired or was suppressed.
enum class GuardrailVerdict : std::uint8_t {
  kFired = 0,       ///< migration recommended and allowed
  kNoChange,        ///< best IC equals the current IC
  kBelowDeadband,   ///< modelled improvement under the dead-band margin
  kHysteresis,      ///< within min_epochs_between_migrations of the last one
  kNotAmortized,    ///< what-if migration cost not repaid within the horizon
  kTimeBudget,      ///< per-epoch migration time budget exhausted
  kMemoryBudget,    ///< target IC footprint exceeds the state-memory budget
};

std::string_view verdict_name(GuardrailVerdict v);

struct GuardrailOptions {
  /// Master switch. Off = legacy behaviour: dead-band only, no budgets,
  /// no hysteresis — required for the bit-for-bit differential.
  bool enabled = false;
  /// Minimum decision epochs between two migrations of one state
  /// (1 = consecutive epochs allowed; the first migration is never
  /// hysteresis-blocked). The default — one migration per 150 decision
  /// epochs sustained — spans many periods of adversarial drift whose
  /// cycle matches the tuning cadence.
  std::uint64_t min_epochs_between_migrations = 150;
  /// The migration must repay its what-if pause within this many
  /// cost-model time units of sustained modelled benefit (C_D is a rate:
  /// µs of modelled work per time unit). Fire only when
  /// migration_cost_us <= horizon × benefit rate.
  double amortize_horizon_units = 50.0;
  /// Modelled migration microseconds credited per decision epoch into a
  /// token bucket (capped at burst_epochs × this). A firing migration
  /// spends its what-if cost; an empty bucket suppresses. infinity = off.
  /// The defaults give a full bucket (200 µs) at startup — enough for the
  /// initial adaptation of a young state — then cap sustained migration
  /// spend at 1 µs of modelled pause per epoch (~0.05% of a 2000-probe
  /// epoch's execution time).
  double epoch_time_budget_us = 1.0;
  double burst_epochs = 200.0;  ///< token-bucket cap, in epochs of accrual
  /// Hard cap on the modelled post-migration state footprint
  /// (index bytes for the target IC). SIZE_MAX = off.
  std::size_t state_memory_budget_bytes =
      std::numeric_limits<std::size_t>::max();
};

/// Live-state facts the what-if model needs, supplied by the caller at
/// each decision (the tuner reads them off the index being tuned).
struct WhatIfContext {
  std::size_t stored_tuples = 0;  ///< tuples the migration must re-insert
  std::size_t state_bytes = 0;    ///< current index footprint (memory guard)
};

/// One selection outcome. `migrate` is true only for kFired.
struct Selection {
  bool migrate = false;
  GuardrailVerdict verdict = GuardrailVerdict::kNoChange;
  /// Modelled benefit rate of switching: current_cost - best_cost (Eq. 1
  /// µs per time unit). Present for every due decision.
  double modelled_benefit_us = 0.0;
  /// What-if rebuild pause: stored_tuples × N_A(best) × C_h — exactly the
  /// charge the migrator will bill if the migration fires.
  double migration_cost_us = 0.0;
  /// migration_cost / benefit rate — time units needed to repay the pause
  /// (infinity when benefit ≤ 0). Only computed with guardrails enabled.
  double amortize_units = 0.0;
  /// Token-bucket state after this decision (guardrails enabled only).
  double budget_spent_us = 0.0;
  double budget_remaining_us = 0.0;
};

/// Stateful per-state selector. Call select() exactly once per decision
/// epoch; the epoch counter, hysteresis clock, and time-budget bucket
/// advance on every call. `deadband` is the modelled-cost dead-band,
/// applied whether or not guardrails are enabled: migrate only when
/// best_cost < current_cost * (1 - deadband).
class GuardrailSelector {
 public:
  GuardrailSelector(GuardrailOptions options, double deadband,
                    double hash_cost)
      : options_(options), deadband_(deadband), hash_cost_(hash_cost) {
    if (options_.enabled &&
        options_.epoch_time_budget_us !=
            std::numeric_limits<double>::infinity()) {
      // Start with one full burst so the first justified migration is
      // never starved by an empty bucket.
      budget_us_ = options_.epoch_time_budget_us * options_.burst_epochs;
    }
  }

  const GuardrailOptions& options() const { return options_; }

  /// Decide whether `eval.best` should replace `eval.current`. Advances
  /// the epoch counter and (enabled only) credits and spends the time budget.
  Selection select(const Evaluation& eval, const index::IndexConfig& current,
                   const WhatIfContext& ctx);

  std::uint64_t epoch() const { return epoch_; }
  std::uint64_t suppressed() const { return suppressed_; }
  double budget_remaining_us() const { return budget_us_; }

 private:
  GuardrailOptions options_;
  double deadband_;
  double hash_cost_;
  std::uint64_t epoch_ = 0;
  std::uint64_t last_migration_epoch_ = 0;
  bool migrated_once_ = false;
  std::uint64_t suppressed_ = 0;
  double budget_us_ = 0.0;
  double budget_spent_total_us_ = 0.0;
};

}  // namespace amri::tuner
