// ABL-EXPLORE — §I-B challenge 1: the router periodically sends requests
// to suboptimal operators to refresh statistics. Sweep the exploration
// rate: zero starves the routing statistics (and the assessment) of
// coverage; too much floods states with low-value diverse probes, which
// the paper argues should not steer the index configuration.
#include <iostream>

#include "bench_util.hpp"

int bench_main(int argc, char** argv) {
  using namespace amri;
  using namespace amri::bench;

  const Config cfg = Config::from_args(argc, argv);
  EvalParams params = EvalParams::from_config(cfg);
  if (!cfg.has("sim_seconds")) params.duration_seconds = 240.0;
  if (!cfg.has("warmup")) params.warmup_seconds = 60.0;

  std::cout << "=== Ablation: router exploration rate (AMRI, CDIA-hc) "
               "===\n\n";
  TablePrinter table({"explore", "outputs", "migrations", "peak_mem_kb"});
  const MethodSpec method{"AMRI", engine::IndexBackend::kAmri,
                          assessment::AssessorKind::kCdiaHighestCount, 0};
  for (const double rate : {0.0, 0.02, 0.05, 0.1, 0.2, 0.4}) {
    EvalParams p = params;
    p.exploration_rate = rate;
    const auto scenario = make_scenario(p);
    const auto r = run_method(scenario, p, method);
    std::uint64_t migrations = 0;
    for (const auto& s : r.states) migrations += s.migrations;
    table.add_row({TablePrinter::fmt(rate, 2),
                   TablePrinter::fmt_int(static_cast<long long>(r.outputs)),
                   TablePrinter::fmt_int(static_cast<long long>(migrations)),
                   TablePrinter::fmt_int(
                       static_cast<long long>(r.peak_memory / 1024))});
    std::cerr << "[abl-explore] rate=" << rate << " outputs=" << r.outputs
              << "\n";
  }
  table.print(std::cout);
  return 0;
}

int main(int argc, char** argv) {
  return amri::bench::guarded_main(bench_main, argc, argv);
}
