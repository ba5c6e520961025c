// The AMRI index tuner: the one online loop per state that (a) feeds every
// search request's access pattern to the assessor cell of the (query,
// shard) it was made for, (b) at each decision merges the cells'
// snapshots (assessment/snapshot.hpp) into the frequent patterns of the
// one logical request stream, (c) searches the IC minimising Eq. 1 with
// index::IndexOptimizer, and (d) hands the scored recommendation to a
// guardrail *selector* (tuner/selector.hpp) that decides whether the
// migration fires: benefit dead-band always, plus hysteresis / what-if
// amortization / time and memory budgets when guardrails are enabled.
// Statistics retention applies to every cell at the decision, before the
// migration.
//
// A plain state has one cell. A sharded state has one per shard, and a
// state shared by several queries one per (query, shard), so the decision
// can report which query drove the union workload.
//
// The tuner is deliberately index-agnostic about *application*: it returns
// recommendations, and `maybe_tune` applies one to a BitAddressIndex or a
// ShardedBitIndex via the migrator. This lets the same tuner drive the
// non-adapting ablation (never apply) and unit tests (inspect
// recommendations only).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "assessment/assessor.hpp"
#include "common/memory_tracker.hpp"
#include "index/bit_address_index.hpp"
#include "index/index_migrator.hpp"
#include "index/index_optimizer.hpp"
#include "index/sharded_bit_index.hpp"
#include "telemetry/telemetry.hpp"
#include "tuner/selector.hpp"

namespace amri::tuner {

/// What happens to assessment statistics after each tuning decision:
///   kReset — fresh window (fastest reaction to drift, noisiest);
///   kKeep  — continuous assessment (stable, reacts slowly to drift);
///   kDecay — counts aged by decay_factor (middle ground).
enum class StatsRetention : std::uint8_t { kReset = 0, kKeep, kDecay };

struct TuneDecision;

struct TunerOptions {
  assessment::AssessorKind assessor =
      assessment::AssessorKind::kCdiaHighestCount;
  assessment::AssessorParams assessor_params{};
  double theta = 0.1;                ///< frequency threshold for results()
  std::uint64_t reassess_every = 2000;  ///< search requests between decisions
  /// The selector's dead-band, with or without guardrails: migrate only if
  /// the modelled cost drops by more than this share (default 2%).
  double min_improvement = 0.02;
  index::OptimizerOptions optimizer{};
  StatsRetention retention = StatsRetention::kReset;
  double decay_factor = 0.25;        ///< for kDecay
  /// Production guardrails for the selection stage (selector.hpp). Unset
  /// (the default) builds a disabled selector: the dead-band alone, the
  /// legacy migration rule, bit-for-bit.
  std::optional<GuardrailOptions> guardrails;
  /// Called after every applied decision (maybe_tune) with the owning
  /// stream and the full decision, including the guardrail verdict. Fires
  /// whether or not telemetry is attached.
  std::function<void(StreamId, const TuneDecision&)> on_decision;
};

/// One query's share of the requests behind a decision: states shared by
/// several queries attribute every probe to the routing query, so the
/// decision timeline can show which query drove the union workload.
struct QueryShare {
  std::size_t query = 0;
  std::uint64_t requests = 0;
};

struct TuneDecision {
  bool due = false;                 ///< a reassessment happened
  bool migrated = false;            ///< the IC actually changed
  index::IndexConfig recommended;   ///< best IC found (valid when due)
  double recommended_cost = 0.0;
  double current_cost = 0.0;
  std::size_t frequent_patterns = 0;
  /// Decision provenance (populated when the tuner has telemetry attached):
  /// the five most frequent assessed patterns behind the decision and the
  /// five cheapest scored configurations, ascending cost.
  std::vector<assessment::AssessedPattern> top_patterns;
  std::vector<index::ScoredConfig> candidates;
  /// Modelled per-probe search cost (Eq. 1 per-request terms, frequency
  /// weighted over the frequent patterns) under the current / recommended
  /// IC — the decision-timeline prediction checked against the next
  /// epoch's realized cost. -1 when unavailable (no telemetry, or no
  /// frequent patterns). Telemetry-attached tuners only.
  double predicted_current_probe_us = -1.0;
  double predicted_recommended_probe_us = -1.0;
  /// Modelled migration pause paid by this decision (0 when not migrated).
  double migration_cost_us = 0.0;
  /// The IC the state ran when this decision was taken (maybe_tune paths).
  index::IndexConfig previous;
  /// Selection outcome (maybe_tune paths): why the recommendation fired or
  /// was suppressed, the what-if numbers behind it, and the time-budget
  /// state after the decision. `suppressed` is true for the
  /// guardrail-blocked verdicts (hysteresis / not-amortized / budget) —
  /// migrations the legacy rule would have made.
  GuardrailVerdict verdict = GuardrailVerdict::kNoChange;
  bool suppressed = false;
  /// Requests each query made since the previous decision (tuners with
  /// more than one query; empty otherwise). Emitted on the tuner_decision
  /// timeline.
  std::vector<QueryShare> query_shares;
  double modelled_benefit_us = 0.0;
  double whatif_migration_cost_us = 0.0;
  double amortize_units = 0.0;
  double budget_spent_us = 0.0;
  double budget_remaining_us = 0.0;
};

class AmriTuner {
 public:
  /// `queries` × `shards` assessor cells, query-major (cell = query *
  /// shards + shard); both default to 1, a plain state's one cell. With
  /// `telemetry` set the tuner logs every decision (assessment top-k,
  /// scored candidate ICs, chosen IC, migration outcome) as a
  /// tuner_decision event for `stream`, and binds assessor/migration
  /// instruments; null keeps all telemetry paths to a pointer check.
  AmriTuner(AttrMask universe, std::size_t num_attrs, index::CostModel model,
            TunerOptions options, MemoryTracker* memory = nullptr,
            telemetry::Telemetry* telemetry = nullptr, StreamId stream = 0,
            std::size_t queries = 1, std::size_t shards = 1);

  ~AmriTuner();

  AmriTuner(const AmriTuner&) = delete;
  AmriTuner& operator=(const AmriTuner&) = delete;

  const TunerOptions& options() const { return options_; }
  /// Cell 0 (query 0, shard 0): a plain state's only assessor.
  const assessment::Assessor& assessor() const { return *cells_.front(); }
  const GuardrailSelector& selector() const { return selector_; }

  /// Ingest one search request's access pattern, made for `query` and
  /// served by `shard`.
  void observe_request(AttrMask ap, std::size_t query = 0,
                       std::size_t shard = 0);

  /// True when enough requests arrived since the last decision.
  bool tuning_due() const {
    return since_last_decision_ >= options_.reassess_every;
  }

  /// One decision's assessment and IC search against `current`, without
  /// selection or migration: merges the cells, scores the ICs, then
  /// applies statistics retention to every cell and resets the
  /// due-counter.
  TuneDecision recommend(const index::IndexConfig& current);

  /// recommend() and, if the guardrail selector lets it fire, migrate
  /// `index` to the recommended IC. The sharded overload migrates shard by
  /// shard, so each pause covers only 1/N of the window.
  TuneDecision maybe_tune(index::BitAddressIndex& index);
  TuneDecision maybe_tune(index::ShardedBitIndex& index);

  /// Accumulate the observed (meter-charged) cost of one probe into the
  /// running epoch. The stem feeds this from its telemetry-guarded probe
  /// measurement (detached runs never call it); the accumulator closes at
  /// the next decision, where the epoch's realized per-probe cost is
  /// compared against the previous decision's prediction and the relative
  /// model error is exported.
  void note_probe_cost(double cost_us) {
    epoch_probe_cost_us_ += cost_us;
    ++epoch_probe_count_;
  }

  std::uint64_t decisions() const { return decisions_; }
  std::uint64_t migrations() const { return migrations_; }
  /// Decisions whose recommended migration cleared the dead-band but was
  /// blocked by an enabled guardrail (hysteresis / amortization / budget).
  std::uint64_t suppressed() const { return selector_.suppressed(); }
  std::uint64_t observed_requests() const { return observed_; }

  /// Total modelled virtual time spent paused in migrations (the hashes a
  /// rebuild charges, priced by the cost model's C_h). Tracked with or
  /// without telemetry.
  double migration_pause_us() const { return migration_pause_us_; }

 private:
  /// Summed approx_bytes() of every cell.
  std::size_t stats_bytes() const;
  void sync_memory();
  /// The one apply body behind both maybe_tune overloads: recommend(), run
  /// the guardrail selector, call `migrate` (which returns the hashes the
  /// rebuild charged) when it fires, then emit the decision event and the
  /// on_decision callback.
  TuneDecision tune(index::IndexConfig before, const WhatIfContext& ctx,
                    const std::function<std::uint64_t(
                        const index::IndexConfig&)>& migrate);
  /// Frequency-weighted mean per-request search cost of `ic` over the
  /// frequent patterns (the prediction the decision timeline tracks).
  /// -1 when `frequent` is empty.
  double expected_probe_cost(
      const index::IndexConfig& ic,
      const std::vector<assessment::AssessedPattern>& frequent) const;
  /// Emits the decision event and rolls the epoch accumulators: the event
  /// carries the closed epoch's prediction/realized pair and the next
  /// epoch's prediction, so each event is self-contained on the timeline.
  void emit_decision_event(const TuneDecision& decision,
                           const index::IndexConfig& current);

  AttrMask universe_;
  std::size_t num_attrs_;
  index::CostModel model_;
  TunerOptions options_;
  std::size_t shards_;
  /// Assessor cells, query-major: cell = query * shards_ + shard.
  std::vector<std::unique_ptr<assessment::Assessor>> cells_;
  /// Requests per query since the last decision (one entry per query).
  std::vector<std::uint64_t> query_requests_;
  GuardrailSelector selector_;
  telemetry::Telemetry* telemetry_;
  StreamId stream_;
  index::IndexMigrator migrator_;
  MemoryTracker* memory_;
  std::size_t tracked_bytes_ = 0;
  std::uint64_t since_last_decision_ = 0;
  std::uint64_t observed_ = 0;
  std::uint64_t decisions_ = 0;
  std::uint64_t migrations_ = 0;
  double migration_pause_us_ = 0.0;
  telemetry::Counter* decision_counter_ = nullptr;
  telemetry::Counter* suppressed_counter_ = nullptr;
  telemetry::Gauge* stats_entries_gauge_ = nullptr;
  telemetry::Gauge* stats_bytes_gauge_ = nullptr;
  // Decision timeline: realized probe cost accumulated over the running
  // epoch (fed by note_probe_cost) and the prediction made when the epoch
  // opened (-1 before the first decision).
  double epoch_probe_cost_us_ = 0.0;
  std::uint64_t epoch_probe_count_ = 0;
  double predicted_probe_us_ = -1.0;
  telemetry::Gauge* model_error_gauge_ = nullptr;
  telemetry::Gauge* realized_probe_gauge_ = nullptr;
};

}  // namespace amri::tuner
