// The AMRI index tuner: the online loop that (a) feeds every search
// request's access pattern to an assessment method, (b) periodically asks
// the assessor for the frequent patterns, (c) runs a candidate *evaluator*
// (tuner/evaluator.hpp — by default the cost-model optimizer search) to
// score ICs, and (d) hands the scored recommendation to a guardrail
// *selector* (tuner/selector.hpp) that decides whether the migration
// fires: benefit dead-band always, plus hysteresis / what-if amortization
// / time and memory budgets when guardrails are enabled.
//
// The tuner is deliberately index-agnostic about *application*: it returns
// recommendations, and `maybe_tune` applies one to a BitAddressIndex via
// the migrator. This lets the same tuner drive the non-adapting ablation
// (never apply) and unit tests (inspect recommendations only).
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
#include "tuner/evaluator.hpp"
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
  double min_improvement = 0.02;     ///< migrate only if cost drops by >= 2%
  index::OptimizerOptions optimizer{};
  StatsRetention retention = StatsRetention::kReset;
  double decay_factor = 0.25;        ///< for kDecay
  /// With telemetry attached, every decision carries the `telemetry_top_k`
  /// most frequent assessed patterns and cheapest candidate ICs.
  std::size_t telemetry_top_k = 5;
  /// Production guardrails for the selection stage (selector.hpp). Unset
  /// (the default) builds a disabled selector whose dead-band equals
  /// `min_improvement` — the legacy migration rule, bit-for-bit.
  std::optional<GuardrailOptions> guardrails;
  /// Called after every applied decision (maybe_tune / maybe_tune_sharded)
  /// with the owning stream and the full decision, including the guardrail
  /// verdict. Fires whether or not telemetry is attached.
  std::function<void(StreamId, const TuneDecision&)> on_decision;
};

/// One query's share of the requests behind a merged assessment epoch:
/// multi-query stems attribute every probe to the routing query, so the
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
  /// the assessment snapshot behind the decision and the scored runner-up
  /// configurations, ascending cost.
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
  /// Per-query request attribution copied from the ExternalAssessment that
  /// produced this decision (multi-query stems; empty otherwise). Emitted
  /// on the tuner_decision timeline.
  std::vector<QueryShare> query_shares;
  double modelled_benefit_us = 0.0;
  double whatif_migration_cost_us = 0.0;
  double amortize_units = 0.0;
  double budget_spent_us = 0.0;
  double budget_remaining_us = 0.0;
};

/// Externally assessed statistics for one decision. Sharded and
/// multi-query stems collect per-shard / per-query assessor snapshots,
/// merge them (assessment/snapshot.hpp), and hand the thresholded answer
/// here so the tuner sees one logical state.
struct ExternalAssessment {
  std::vector<assessment::AssessedPattern> frequent;
  std::size_t table_size = 0;    ///< merged retained entries (gauges)
  std::size_t approx_bytes = 0;  ///< merged statistics footprint (gauges)
  /// Per-query request attribution for the closing epoch (multi-query
  /// stems only; empty keeps single-query decision events unchanged).
  std::vector<QueryShare> per_query;
};

class AmriTuner {
 public:
  /// With `telemetry` set the tuner logs every decision (assessment top-k,
  /// scored candidate ICs, chosen IC, migration outcome) as a
  /// tuner_decision event for `stream`, and binds assessor/migration
  /// instruments; null keeps all telemetry paths to a pointer check.
  AmriTuner(AttrMask universe, std::size_t num_attrs, index::CostModel model,
            TunerOptions options, MemoryTracker* memory = nullptr,
            telemetry::Telemetry* telemetry = nullptr, StreamId stream = 0);

  ~AmriTuner();

  AmriTuner(const AmriTuner&) = delete;
  AmriTuner& operator=(const AmriTuner&) = delete;

  const TunerOptions& options() const { return options_; }
  const assessment::Assessor& assessor() const { return *assessor_; }
  const CandidateEvaluator& evaluator() const { return *evaluator_; }
  const GuardrailSelector& selector() const { return selector_; }

  /// Swap in a custom candidate evaluator (the default is the cost-model
  /// optimizer search). Must not be null; call before the first decision.
  void set_evaluator(std::unique_ptr<CandidateEvaluator> evaluator);

  /// Ingest one search request's access pattern.
  void observe_request(AttrMask ap);

  /// True when enough requests arrived since the last decision.
  bool tuning_due() const {
    return since_last_decision_ >= options_.reassess_every;
  }

  /// Run assessment + selection against `current`; returns the decision
  /// without applying it. Resets the due-counter (and optionally stats).
  TuneDecision recommend(const index::IndexConfig& current);

  /// recommend() and, if the improvement clears the hysteresis margin,
  /// migrate `index` to the recommended IC.
  TuneDecision maybe_tune(index::BitAddressIndex& index);

  /// Count one request assessed *outside* the tuner (sharded and
  /// multi-query stems feed their assessor grid directly); keeps the
  /// decision cadence — and the observed-request total — identical to the
  /// observe_request() path.
  void note_request() {
    ++since_last_decision_;
    ++observed_;
  }

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

  /// Selection over externally assessed (merged per-shard) statistics.
  /// Same decision core as recommend(); statistics retention is the
  /// caller's job (the stem owns the shard assessors).
  TuneDecision recommend_from(const ExternalAssessment& external,
                              const index::IndexConfig& current);

  /// recommend_from() and, if the improvement clears the hysteresis
  /// margin, migrate `index` shard by shard so each pause covers only
  /// 1/N of the window.
  TuneDecision maybe_tune_sharded(index::ShardedBitIndex& index,
                                  const ExternalAssessment& external);

  /// maybe_tune() driven by an external (merged per-query) assessment
  /// instead of the tuner's own assessor — the unsharded counterpart of
  /// maybe_tune_sharded, used by multi-query stems whose shared state runs
  /// a single BitAddressIndex.
  TuneDecision maybe_tune_external(index::BitAddressIndex& index,
                                   const ExternalAssessment& external);

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
  void sync_memory();
  /// Shared decision core: evaluator run over `frequent` against
  /// `current`. Increments the decision counters; retention is the
  /// caller's responsibility.
  TuneDecision decide(const std::vector<assessment::AssessedPattern>& frequent,
                      const index::IndexConfig& current);
  /// Selection stage shared by maybe_tune / maybe_tune_sharded: run the
  /// guardrail selector over a due decision and copy the outcome (verdict,
  /// what-if numbers, budget state) into it. Returns true when the
  /// migration should fire.
  bool select_migration(TuneDecision& decision,
                        const index::IndexConfig& current,
                        const WhatIfContext& ctx);
  /// Post-apply bookkeeping shared by the maybe_tune paths: decision
  /// event, suppressed gauge, on_decision callback.
  void finish_decision(const TuneDecision& decision,
                       const index::IndexConfig& before);
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
  std::unique_ptr<assessment::Assessor> assessor_;
  std::unique_ptr<CandidateEvaluator> evaluator_;
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
