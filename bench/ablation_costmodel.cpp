// ABL-COST — cost-model ablation: index selection under the paper's
// Equation 1 versus the extended model that also charges the wildcard
// bucket-enumeration a physical probe actually performs. The extended
// model penalises bits on rarely-bound attributes and shifts the selected
// ICs; this bench reports the end-to-end effect.
#include <iostream>

#include "bench_util.hpp"

int bench_main(int argc, char** argv) {
  using namespace amri;
  using namespace amri::bench;

  const Config cfg = Config::from_args(argc, argv);
  EvalParams params = EvalParams::from_config(cfg);
  if (!cfg.has("sim_seconds")) params.duration_seconds = 240.0;
  if (!cfg.has("warmup")) params.warmup_seconds = 60.0;

  std::cout << "=== Ablation: paper cost model (Eq. 1) vs extended "
               "(wildcard bucket term) ===\n\n";
  TablePrinter table({"cost_model", "outputs", "migrations", "peak_mem_kb"});
  const MethodSpec method{"AMRI", engine::IndexBackend::kAmri,
                          assessment::AssessorKind::kCdiaHighestCount, 0};
  for (const bool extended : {false, true}) {
    const auto scenario = make_scenario(params);
    auto eopts = make_executor_options(scenario, params, method);
    eopts.stem.amri_tuner->optimizer.use_extended_cost = extended;
    engine::Executor ex(scenario.query(), eopts);
    const auto src = scenario.make_source();
    const auto r = ex.run(*src);
    std::uint64_t migrations = 0;
    for (const auto& s : r.states) migrations += s.migrations;
    table.add_row({extended ? "extended" : "paper_eq1",
                   TablePrinter::fmt_int(static_cast<long long>(r.outputs)),
                   TablePrinter::fmt_int(static_cast<long long>(migrations)),
                   TablePrinter::fmt_int(
                       static_cast<long long>(r.peak_memory / 1024))});
    std::cerr << "[abl-cost] " << (extended ? "extended" : "paper")
              << " outputs=" << r.outputs << "\n";
  }
  table.print(std::cout);
  return 0;
}

int main(int argc, char** argv) {
  return amri::bench::guarded_main(bench_main, argc, argv);
}
