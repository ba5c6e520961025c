// Drift anatomy: watch the feedback loop the paper is built around.
//
// Phase 1 routes probes through attribute A (its join is selective);
// mid-run the selectivities flip so the router prefers attribute C first.
// The demo prints, per assessment window: the access-pattern mix one state
// receives, the IC the tuner selects, and the probe cost before/after the
// migration — the router→pattern→index chain of §I.
#include <iomanip>
#include <iostream>

#include "assessment/assessor.hpp"
#include "index/bit_address_index.hpp"
#include "index/index_migrator.hpp"
#include "index/index_optimizer.hpp"
#include "tuner/amri_tuner.hpp"
#include "workload/request_generator.hpp"

using namespace amri;

namespace {

// Synthetic state contents: 4000 tuples over 3 join attributes.
std::vector<std::unique_ptr<Tuple>> make_state(std::size_t n) {
  Rng rng(99);
  std::vector<std::unique_ptr<Tuple>> out;
  for (std::size_t i = 0; i < n; ++i) {
    auto t = std::make_unique<Tuple>();
    t->seq = i;
    t->values = {static_cast<Value>(rng.below(64)),
                 static_cast<Value>(rng.below(64)),
                 static_cast<Value>(rng.below(64))};
    out.push_back(std::move(t));
  }
  return out;
}

double average_probe_compares(index::BitAddressIndex& idx,
                              workload::RequestGenerator gen, int probes) {
  Rng rng(7);
  std::uint64_t compares = 0;
  std::vector<const Tuple*> out;
  for (int i = 0; i < probes; ++i) {
    index::ProbeKey key;
    key.mask = gen.next();
    if (key.mask == 0) key.mask = 0b001;
    key.values.resize(3, 0);
    for_each_bit(key.mask, [&](unsigned pos) {
      key.values[pos] = static_cast<Value>(rng.below(64));
    });
    out.clear();
    compares += idx.probe(key, out).tuples_compared;
  }
  return static_cast<double>(compares) / probes;
}

}  // namespace

int main() {
  const auto tuples = make_state(4000);
  const index::JoinAttributeSet jas({0, 1, 2});
  index::BitAddressIndex idx(jas, index::IndexConfig({3, 3, 2}));
  for (const auto& t : tuples) idx.insert(t.get());

  index::WorkloadParams wp;
  wp.lambda_d = 100;
  wp.lambda_r = 400;
  wp.window_units = 40;
  tuner::TunerOptions topts;
  topts.assessor = assessment::AssessorKind::kCdiaHighestCount;
  topts.assessor_params.epsilon = 0.05;
  topts.theta = 0.1;
  topts.reassess_every = 2000;
  topts.optimizer.bit_budget = 8;
  tuner::AmriTuner tuner(0b111, 3, index::CostModel(wp), topts);

  // Two-phase drifting request stream: A-heavy, then C-heavy.
  workload::RequestPhase phase_a;
  phase_a.length = 6000;
  phase_a.hot = {{0b001, 0.55}, {0b011, 0.25}, {0b111, 0.1}};
  workload::RequestPhase phase_c;
  phase_c.length = 6000;
  phase_c.hot = {{0b100, 0.55}, {0b110, 0.25}, {0b111, 0.1}};
  workload::RequestGenerator requests(0b111, {phase_a, phase_c}, 17);

  std::cout << "initial IC: " << idx.config().to_string() << "\n\n";
  std::cout << std::fixed << std::setprecision(1);

  for (int window = 0; window < 6; ++window) {
    // One assessment window of probes.
    for (std::uint64_t i = 0; i < topts.reassess_every; ++i) {
      tuner.observe_request(requests.next());
    }
    const char* phase = requests.current_phase() == 0 ? "A-heavy" : "C-heavy";
    const double before = average_probe_compares(
        idx,
        requests.current_phase() == 0
            ? workload::RequestGenerator(0b111, {phase_a}, 3)
            : workload::RequestGenerator(0b111, {phase_c}, 3),
        500);
    const auto decision = tuner.maybe_tune(idx);
    const double after = average_probe_compares(
        idx,
        requests.current_phase() == 0
            ? workload::RequestGenerator(0b111, {phase_a}, 3)
            : workload::RequestGenerator(0b111, {phase_c}, 3),
        500);
    std::cout << "window " << window << " [" << phase << "]"
              << "  recommended " << decision.recommended.to_string()
              << (decision.migrated ? "  -> MIGRATED" : "  (kept)")
              << "  avg compares/probe: " << before << " -> " << after
              << "\n";
  }

  std::cout << "\nfinal IC: " << idx.config().to_string() << " after "
            << tuner.migrations() << " migrations over "
            << tuner.observed_requests() << " requests\n";
  return 0;
}
