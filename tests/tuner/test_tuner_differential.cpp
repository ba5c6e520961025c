// Differential tests pinning the tuner's guardrail selector
// (tuner/selector.hpp) to the legacy AmriTuner migration rule:
//
//   * with guardrails unset, every applied decision must match the legacy
//     migration rule recomputed from the decision's own numbers
//     (`recommended != previous && recommended_cost <
//     current_cost * (1 - min_improvement)`);
//   * a tuner with guardrails *enabled but neutralized* (the same
//     min_improvement dead-band, hysteresis = 1, horizon / budgets =
//     infinity) must reproduce the guardrails-off tuner bit-for-bit: same
//     decisions, same migrations, same final index configuration;
//   * the same equivalence end-to-end through the executor on an
//     adversarial scenario (identical outputs, migrations, and final ICs).
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "../test_util.hpp"
#include "common/rng.hpp"
#include "engine/executor.hpp"
#include "tuner/amri_tuner.hpp"
#include "workload/adversarial.hpp"

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
  o.reassess_every = 400;
  o.optimizer.bit_budget = 6;
  o.optimizer.max_bits_per_attr = 6;
  return o;
}

/// Guardrails switched on but with every production check neutralized:
/// must be behaviourally identical to guardrails-off.
GuardrailOptions neutralized() {
  GuardrailOptions g;
  g.enabled = true;
  g.min_epochs_between_migrations = 1;
  g.amortize_horizon_units = std::numeric_limits<double>::infinity();
  g.epoch_time_budget_us = std::numeric_limits<double>::infinity();
  g.state_memory_budget_bytes = std::numeric_limits<std::size_t>::max();
  return g;
}

TEST(TunerDifferential, LegacyRuleRecomputedFromEveryDecision) {
  TunerOptions o = fast_options();
  std::vector<TuneDecision> decisions;
  o.on_decision = [&decisions](StreamId, const TuneDecision& d) {
    decisions.push_back(d);
  };
  AmriTuner tuner(0b111, 3, paper_model(), o);
  index::BitAddressIndex idx(index::JoinAttributeSet({0, 1, 2}),
                             index::IndexConfig({2, 2, 2}));
  testutil::TuplePool pool(200, 3, 50, 77);
  for (const Tuple* t : pool.pointers()) idx.insert(t);

  // Drifting request stream: the hot pattern moves every ~600 requests.
  Rng rng(42);
  const AttrMask hot[] = {0b001, 0b100, 0b010, 0b101, 0b110};
  for (int i = 0; i < 3000; ++i) {
    const AttrMask ap = rng.below(10) < 7
                            ? hot[i / 600]
                            : static_cast<AttrMask>(1 + rng.below(7));
    tuner.observe_request(ap);
    tuner.maybe_tune(idx);
  }

  ASSERT_GE(decisions.size(), 5u);
  for (const TuneDecision& d : decisions) {
    ASSERT_TRUE(d.due);
    const bool legacy_migrates =
        !(d.recommended == d.previous) &&
        d.recommended_cost <
            d.current_cost * (1.0 - fast_options().min_improvement);
    EXPECT_EQ(d.migrated, legacy_migrates);
    // Guardrails are unset: nothing may ever be suppressed.
    EXPECT_FALSE(d.suppressed);
  }
  EXPECT_EQ(tuner.suppressed(), 0u);
}

TEST(TunerDifferential, NeutralizedGuardrailsMatchLegacyBitForBit) {
  TunerOptions legacy_opts = fast_options();
  TunerOptions guarded_opts = fast_options();
  guarded_opts.guardrails = neutralized();

  std::vector<TuneDecision> legacy_decisions;
  std::vector<TuneDecision> guarded_decisions;
  legacy_opts.on_decision = [&legacy_decisions](StreamId,
                                                const TuneDecision& d) {
    legacy_decisions.push_back(d);
  };
  guarded_opts.on_decision = [&guarded_decisions](StreamId,
                                                  const TuneDecision& d) {
    guarded_decisions.push_back(d);
  };

  AmriTuner legacy(0b111, 3, paper_model(), legacy_opts);
  AmriTuner guarded(0b111, 3, paper_model(), guarded_opts);
  index::BitAddressIndex legacy_idx(index::JoinAttributeSet({0, 1, 2}),
                                    index::IndexConfig({2, 2, 2}));
  index::BitAddressIndex guarded_idx(index::JoinAttributeSet({0, 1, 2}),
                                     index::IndexConfig({2, 2, 2}));
  testutil::TuplePool pool(200, 3, 50, 77);
  for (const Tuple* t : pool.pointers()) {
    legacy_idx.insert(t);
    guarded_idx.insert(t);
  }

  Rng rng(7);
  const AttrMask hot[] = {0b010, 0b001, 0b100, 0b011, 0b110};
  for (int i = 0; i < 3000; ++i) {
    const AttrMask ap = rng.below(10) < 7
                            ? hot[i / 600]
                            : static_cast<AttrMask>(1 + rng.below(7));
    legacy.observe_request(ap);
    guarded.observe_request(ap);
    legacy.maybe_tune(legacy_idx);
    guarded.maybe_tune(guarded_idx);
    ASSERT_EQ(legacy_idx.config(), guarded_idx.config()) << "at request " << i;
  }

  EXPECT_EQ(legacy.migrations(), guarded.migrations());
  EXPECT_EQ(guarded.suppressed(), 0u);
  ASSERT_EQ(legacy_decisions.size(), guarded_decisions.size());
  for (std::size_t i = 0; i < legacy_decisions.size(); ++i) {
    EXPECT_EQ(legacy_decisions[i].migrated, guarded_decisions[i].migrated);
    EXPECT_EQ(legacy_decisions[i].recommended,
              guarded_decisions[i].recommended);
    EXPECT_EQ(legacy_decisions[i].recommended_cost,
              guarded_decisions[i].recommended_cost);
    EXPECT_EQ(legacy_decisions[i].current_cost,
              guarded_decisions[i].current_cost);
  }
}

/// One executor run over an adversarial scenario; returns the bits the
/// differential compares.
struct E2eObserved {
  std::uint64_t outputs = 0;
  std::vector<std::uint64_t> migrations;
  std::vector<std::string> final_ics;
};

E2eObserved run_scenario_e2e(const std::string& name,
                             std::optional<GuardrailOptions> guardrails) {
  workload::AdversarialOptions aopts;
  aopts.rate_per_sec = 40.0;
  aopts.seed = 11;
  aopts.generate_seconds = 0.0;
  const auto scenario = workload::AdversarialScenario::make(name, aopts);

  auto eopts = scenario->executor_options();
  eopts.duration = seconds_to_micros(8.0);
  eopts.sample_every = seconds_to_micros(4.0);
  eopts.stem.backend = engine::IndexBackend::kAmri;
  const std::size_t n_attrs = scenario->query().layout(0).jas.size();
  std::vector<std::uint8_t> bits(n_attrs, 0);
  for (int b = 0; b < 8; ++b) ++bits[static_cast<std::size_t>(b) % n_attrs];
  eopts.stem.initial_config = index::IndexConfig(bits);
  TunerOptions topts;
  topts.reassess_every = 500;
  topts.optimizer.bit_budget = 8;
  topts.guardrails = guardrails;
  eopts.stem.amri_tuner = topts;

  engine::Executor ex(scenario->query(), eopts);
  const auto source = scenario->make_source();
  const auto r = ex.run(*source);

  E2eObserved obs;
  obs.outputs = r.outputs;
  for (const auto& st : r.states) {
    obs.migrations.push_back(st.migrations);
    obs.final_ics.push_back(st.final_index);
  }
  return obs;
}

TEST(TunerDifferential, NeutralizedGuardrailsMatchLegacyEndToEnd) {
  for (const std::string name : {"rotating_hot_set", "correlated_join"}) {
    const E2eObserved legacy = run_scenario_e2e(name, std::nullopt);
    const E2eObserved guarded = run_scenario_e2e(name, neutralized());
    EXPECT_EQ(legacy.outputs, guarded.outputs) << name;
    EXPECT_EQ(legacy.migrations, guarded.migrations) << name;
    EXPECT_EQ(legacy.final_ics, guarded.final_ics) << name;
  }
}

}  // namespace
}  // namespace amri::tuner
