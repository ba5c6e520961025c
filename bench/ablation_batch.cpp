// ABL-BATCH — routing-decision reuse (paper §I: AMR "dynamically routes
// batches of tuples"). This sweeps `EddyOptions::decision_reuse` — how many
// same-done-mask partials share one cached routing decision — NOT the
// executor-level `--batch-size` (which moves arrivals through the pipeline
// together without changing any decision). Larger reuse amortises the
// per-decision routing cost but reacts to drift one batch late; the sweep
// shows the trade-off under the standard drifting workload.
#include <iostream>

#include "bench_util.hpp"

int bench_main(int argc, char** argv) {
  using namespace amri;
  using namespace amri::bench;

  const Config cfg = Config::from_args(argc, argv);
  EvalParams params = EvalParams::from_config(cfg);
  if (!cfg.has("sim_seconds")) params.duration_seconds = 240.0;
  if (!cfg.has("warmup")) params.warmup_seconds = 60.0;

  std::cout << "=== Ablation: routing batch size (AMRI, CDIA-hc) ===\n\n";
  TablePrinter table({"batch", "outputs", "routing_decisions",
                      "charged_virtual_s"});
  const MethodSpec method{"AMRI", engine::IndexBackend::kAmri,
                          assessment::AssessorKind::kCdiaHighestCount, 0};
  for (const std::size_t batch : {1u, 4u, 16u, 64u, 256u}) {
    const auto scenario = make_scenario(params);
    auto eopts = make_executor_options(scenario, params, method);
    eopts.eddy.decision_reuse = batch;
    engine::Executor ex(scenario.query(), eopts);
    const auto src = scenario.make_source();
    const auto r = ex.run(*src);
    table.add_row({TablePrinter::fmt_int(static_cast<long long>(batch)),
                   TablePrinter::fmt_int(static_cast<long long>(r.outputs)),
                   TablePrinter::fmt_int(
                       static_cast<long long>(r.routing_decisions)),
                   TablePrinter::fmt(r.charged_us / 1e6, 1)});
    std::cerr << "[abl-batch] batch=" << batch << " outputs=" << r.outputs
              << "\n";
  }
  table.print(std::cout);
  return 0;
}

int main(int argc, char** argv) {
  return amri::bench::guarded_main(bench_main, argc, argv);
}
