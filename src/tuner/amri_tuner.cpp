#include "tuner/amri_tuner.hpp"

#include <algorithm>
#include <cassert>
#include <string>

#include "assessment/snapshot.hpp"
#include "common/bitops.hpp"
#include "index/access_pattern.hpp"
#include "telemetry/json.hpp"

namespace amri::tuner {

namespace {
// With telemetry attached, every decision carries this many of the most
// frequent assessed patterns and of the cheapest candidate ICs.
constexpr std::size_t kTelemetryTopK = 5;
}  // namespace

AmriTuner::AmriTuner(AttrMask universe, std::size_t num_attrs,
                     index::CostModel model, TunerOptions options,
                     MemoryTracker* memory, telemetry::Telemetry* telemetry,
                     StreamId stream, std::size_t queries, std::size_t shards)
    : universe_(universe),
      num_attrs_(num_attrs),
      model_(std::move(model)),
      options_(std::move(options)),
      shards_(std::max<std::size_t>(shards, 1)),
      query_requests_(std::max<std::size_t>(queries, 1), 0),
      selector_(options_.guardrails.value_or(GuardrailOptions{}),
                options_.min_improvement, model_.params().hash_cost),
      telemetry_(telemetry),
      stream_(stream),
      migrator_(telemetry, stream),
      memory_(memory) {
  assert(popcount(universe) == static_cast<int>(num_attrs));
  const std::size_t n_queries = query_requests_.size();
  cells_.reserve(n_queries * shards_);
  for (std::size_t i = 0; i < n_queries * shards_; ++i) {
    cells_.push_back(assessment::make_assessor(options_.assessor, universe,
                                               options_.assessor_params));
    assert(cells_.back() != nullptr);
  }
  if (telemetry_ != nullptr) {
    const std::string prefix = "stem." + std::to_string(stream_);
    for (std::size_t q = 0; q < n_queries; ++q) {
      const std::string qpart = n_queries > 1 ? ".q" + std::to_string(q) : "";
      for (std::size_t i = 0; i < shards_; ++i) {
        const std::string spart =
            shards_ > 1 ? ".shard." + std::to_string(i) : "";
        cells_[q * shards_ + i]->bind_telemetry(
            telemetry_, prefix + qpart + spart + ".assess");
      }
    }
    auto& reg = telemetry_->metrics();
    decision_counter_ = &reg.counter(prefix + ".tuner.decisions");
    suppressed_counter_ = &reg.counter(prefix + ".tuner.suppressed");
    stats_entries_gauge_ = &reg.gauge(prefix + ".assess.table_size");
    stats_bytes_gauge_ = &reg.gauge(prefix + ".assess.bytes");
    model_error_gauge_ = &reg.gauge(prefix + ".tuner.model_error");
    realized_probe_gauge_ = &reg.gauge(prefix + ".tuner.realized_probe_us");
  }
}

AmriTuner::~AmriTuner() {
  if (memory_ != nullptr && tracked_bytes_ > 0) {
    memory_->release(MemCategory::kStatistics, tracked_bytes_);
  }
}

std::size_t AmriTuner::stats_bytes() const {
  std::size_t bytes = 0;
  for (const auto& cell : cells_) bytes += cell->approx_bytes();
  return bytes;
}

void AmriTuner::sync_memory() {
  if (memory_ == nullptr) return;
  const std::size_t now = stats_bytes();
  if (now > tracked_bytes_) {
    memory_->allocate(MemCategory::kStatistics, now - tracked_bytes_);
  } else if (now < tracked_bytes_) {
    memory_->release(MemCategory::kStatistics, tracked_bytes_ - now);
  }
  tracked_bytes_ = now;
}

void AmriTuner::observe_request(AttrMask ap, std::size_t query,
                                std::size_t shard) {
  assert(is_subset(ap, universe_));
  assert(query < query_requests_.size() && shard < shards_);
  cells_[query * shards_ + shard]->observe(ap);
  ++query_requests_[query];
  ++since_last_decision_;
  ++observed_;
  sync_memory();
}

double AmriTuner::expected_probe_cost(
    const index::IndexConfig& ic,
    const std::vector<assessment::AssessedPattern>& frequent) const {
  double weight = 0.0;
  double cost = 0.0;
  for (const auto& p : frequent) {
    weight += p.frequency;
    cost += p.frequency * model_.search_cost(ic, p.mask);
  }
  return weight > 0.0 ? cost / weight : -1.0;
}

TuneDecision AmriTuner::recommend(const index::IndexConfig& current) {
  TuneDecision decision;
  decision.due = true;
  decision.previous = current;
  ++decisions_;
  since_last_decision_ = 0;

  std::vector<assessment::AssessedPattern> frequent;
  std::size_t table_size = 0;
  {
    telemetry::ScopedPhase merge_scope(
        telemetry_ != nullptr ? telemetry_->profiler() : nullptr,
        telemetry::Phase::kSnapshotMerge);
    std::vector<assessment::AssessmentSnapshot> parts;
    parts.reserve(cells_.size());
    for (const auto& cell : cells_) parts.push_back(cell->snapshot());
    const auto merged = assessment::merge_snapshots(parts);
    frequent = assessment::snapshot_results(merged, options_.theta);
    table_size = merged.entries.size();
  }
  decision.frequent_patterns = frequent.size();

  // IC search over Eq. 1, and the current IC costed by the same variant.
  const auto pattern_freqs = assessment::to_pattern_frequencies(frequent);
  index::OptimizerOptions oopts = options_.optimizer;
  if (telemetry_ != nullptr) oopts.track_top_k = kTelemetryTopK;
  index::OptimizerResult best =
      index::IndexOptimizer(model_, oopts).optimize(num_attrs_, pattern_freqs);
  decision.recommended = std::move(best.config);
  decision.recommended_cost = best.cost;
  decision.candidates = std::move(best.top);
  decision.current_cost =
      oopts.use_extended_cost ? model_.extended_cost(current, pattern_freqs)
                              : model_.paper_cost(current, pattern_freqs);

  if (telemetry_ != nullptr) {
    decision.top_patterns.assign(
        frequent.begin(),
        frequent.begin() + static_cast<std::ptrdiff_t>(
                               std::min(frequent.size(), kTelemetryTopK)));
    decision_counter_->add();
    decision.predicted_current_probe_us =
        expected_probe_cost(current, frequent);
    decision.predicted_recommended_probe_us =
        expected_probe_cost(decision.recommended, frequent);
    stats_entries_gauge_->set(static_cast<double>(table_size));
    stats_bytes_gauge_->set(static_cast<double>(stats_bytes()));
  }
  if (query_requests_.size() > 1) {
    for (std::size_t q = 0; q < query_requests_.size(); ++q) {
      decision.query_shares.push_back(QueryShare{q, query_requests_[q]});
    }
  }
  std::fill(query_requests_.begin(), query_requests_.end(), 0);

  for (auto& cell : cells_) {
    switch (options_.retention) {
      case StatsRetention::kReset:
        cell->reset();
        break;
      case StatsRetention::kKeep:
        break;
      case StatsRetention::kDecay:
        cell->decay(options_.decay_factor);
        break;
    }
  }
  sync_memory();
  return decision;
}

void AmriTuner::emit_decision_event(const TuneDecision& decision,
                                    const index::IndexConfig& current) {
  if (telemetry_ == nullptr) return;
  telemetry::JsonWriter w;
  w.begin_object();
  w.field("assessor", cells_.front()->name());
  w.field("observed", observed_);
  w.field("frequent_patterns",
          static_cast<std::uint64_t>(decision.frequent_patterns));
  w.begin_array("top_patterns");
  for (const auto& p : decision.top_patterns) {
    telemetry::JsonWriter pw;
    pw.begin_object();
    pw.field("mask", index::pattern_to_string(p.mask, num_attrs_));
    pw.field("count", p.count);
    pw.field("frequency", p.frequency);
    pw.end_object();
    w.value_raw(std::move(pw).take());
  }
  w.end_array();
  w.begin_array("candidates");
  for (const auto& c : decision.candidates) {
    telemetry::JsonWriter cw;
    cw.begin_object();
    cw.field("ic", c.config.to_string());
    cw.field("cost", c.cost);
    cw.end_object();
    w.value_raw(std::move(cw).take());
  }
  w.end_array();
  if (!decision.query_shares.empty()) {
    // Multi-query attribution: which query drove the union workload this
    // epoch (merged per-query assessor requests behind the decision).
    w.begin_array("per_query");
    for (const QueryShare& qs : decision.query_shares) {
      telemetry::JsonWriter qw;
      qw.begin_object();
      qw.field("query", static_cast<std::uint64_t>(qs.query));
      qw.field("requests", qs.requests);
      qw.end_object();
      w.value_raw(std::move(qw).take());
    }
    w.end_array();
  }
  w.field("current_ic", current.to_string());
  w.field("current_cost", decision.current_cost);
  w.field("chosen_ic", decision.recommended.to_string());
  w.field("chosen_cost", decision.recommended_cost);
  w.field("migrated", decision.migrated);
  w.field("migration_cost_us", decision.migration_cost_us);

  // Guardrail outcome: why the recommendation fired or was suppressed,
  // with the what-if numbers the selector weighed.
  w.begin_object("guardrails");
  w.field("enabled", selector_.options().enabled);
  w.field("verdict", verdict_name(decision.verdict));
  w.field("suppressed", decision.suppressed);
  w.field("modelled_benefit_us", decision.modelled_benefit_us);
  w.field("whatif_migration_cost_us", decision.whatif_migration_cost_us);
  w.field("amortize_units", decision.amortize_units);
  if (selector_.options().enabled) {
    w.field("budget_spent_us", decision.budget_spent_us);
    w.field("budget_remaining_us", decision.budget_remaining_us);
    w.field("suppressed_total", selector_.suppressed());
  }
  w.end_object();

  // Decision timeline: close the epoch this decision ends — realized
  // per-probe cost (meter-charged virtual µs) against the prediction made
  // when it opened — then open the next one with this decision's
  // effective (post-migration-choice) prediction. Every event is
  // self-contained: no cross-event shifting needed downstream.
  w.field("epoch", decisions_);
  const double realized =
      epoch_probe_count_ > 0
          ? epoch_probe_cost_us_ / static_cast<double>(epoch_probe_count_)
          : -1.0;
  w.field("prev_predicted_probe_us", predicted_probe_us_);
  w.field("realized_probe_us", realized);
  w.field("epoch_probes", epoch_probe_count_);
  if (predicted_probe_us_ > 0.0 && realized >= 0.0) {
    const double error =
        (realized - predicted_probe_us_) / predicted_probe_us_;
    w.field("model_error", error);
    model_error_gauge_->set(error);
  }
  if (realized >= 0.0) realized_probe_gauge_->set(realized);
  const double next_predicted = decision.migrated
                                    ? decision.predicted_recommended_probe_us
                                    : decision.predicted_current_probe_us;
  w.field("predicted_probe_us", next_predicted);
  predicted_probe_us_ = next_predicted;
  epoch_probe_cost_us_ = 0.0;
  epoch_probe_count_ = 0;

  w.end_object();
  assert(telemetry_ != nullptr);  // early-returned above when detached
  telemetry_->emit(telemetry::EventKind::kTunerDecision, stream_,
                   std::move(w).take());
}

TuneDecision AmriTuner::tune(
    index::IndexConfig before, const WhatIfContext& ctx,
    const std::function<std::uint64_t(const index::IndexConfig&)>& migrate) {
  TuneDecision decision = recommend(before);
  Evaluation eval;
  eval.best = decision.recommended;
  eval.best_cost = decision.recommended_cost;
  eval.current_cost = decision.current_cost;
  const Selection sel = selector_.select(eval, before, ctx);
  decision.verdict = sel.verdict;
  decision.suppressed = sel.verdict == GuardrailVerdict::kHysteresis ||
                        sel.verdict == GuardrailVerdict::kNotAmortized ||
                        sel.verdict == GuardrailVerdict::kTimeBudget ||
                        sel.verdict == GuardrailVerdict::kMemoryBudget;
  decision.modelled_benefit_us = sel.modelled_benefit_us;
  decision.whatif_migration_cost_us = sel.migration_cost_us;
  decision.amortize_units = sel.amortize_units;
  decision.budget_spent_us = sel.budget_spent_us;
  decision.budget_remaining_us = sel.budget_remaining_us;
  if (sel.migrate) {
    // A sharded rebuild's total modelled pause equals the unsharded one;
    // only its per-probe stall shrinks to the largest single shard.
    decision.migration_cost_us =
        static_cast<double>(migrate(decision.recommended)) *
        model_.params().hash_cost;
    migration_pause_us_ += decision.migration_cost_us;
    decision.migrated = true;
    ++migrations_;
  }
  if (telemetry_ != nullptr) {
    if (decision.suppressed) suppressed_counter_->add();
    emit_decision_event(decision, before);
  }
  if (options_.on_decision) options_.on_decision(stream_, decision);
  return decision;
}

TuneDecision AmriTuner::maybe_tune(index::BitAddressIndex& index) {
  return tune(index.config(), {index.size(), index.memory_bytes()},
              [&](const index::IndexConfig& target) {
                return migrator_.migrate(index, target).hashes_charged;
              });
}

TuneDecision AmriTuner::maybe_tune(index::ShardedBitIndex& index) {
  return tune(index.config(), {index.size(), index.memory_bytes()},
              [&](const index::IndexConfig& target) {
                return index.migrate_shards(target, migrator_).hashes_charged;
              });
}

}  // namespace amri::tuner
