// ABL-EPS — §IV (epsilon/theta): how the lossy-counting error rate and the
// frequency threshold trade statistics memory against the quality of the
// selected index configurations (throughput), for CDIA-hc-tuned AMRI.
#include <iostream>

#include "bench_util.hpp"

int bench_main(int argc, char** argv) {
  using namespace amri;
  using namespace amri::bench;

  const Config cfg = Config::from_args(argc, argv);
  EvalParams params = EvalParams::from_config(cfg);
  if (!cfg.has("sim_seconds")) params.duration_seconds = 240.0;
  if (!cfg.has("warmup")) params.warmup_seconds = 60.0;

  std::cout << "=== Ablation: assessment epsilon x theta (AMRI, CDIA-hc) "
               "===\n\n";
  TablePrinter table({"epsilon", "theta", "outputs", "migrations",
                      "peak_mem_kb"});
  const MethodSpec method{"AMRI", engine::IndexBackend::kAmri,
                          assessment::AssessorKind::kCdiaHighestCount, 0};
  for (const double eps : {0.005, 0.02, 0.05, 0.1}) {
    for (const double theta : {0.05, 0.10, 0.20}) {
      EvalParams p = params;
      p.epsilon = eps;
      p.theta = theta;
      const auto scenario = make_scenario(p);
      const auto r = run_method(scenario, p, method);
      std::uint64_t migrations = 0;
      for (const auto& s : r.states) migrations += s.migrations;
      table.add_row(
          {TablePrinter::fmt(eps, 3), TablePrinter::fmt(theta, 2),
           TablePrinter::fmt_int(static_cast<long long>(r.outputs)),
           TablePrinter::fmt_int(static_cast<long long>(migrations)),
           TablePrinter::fmt_int(
               static_cast<long long>(r.peak_memory / 1024))});
      std::cerr << "[abl-eps] eps=" << eps << " theta=" << theta
                << " outputs=" << r.outputs << "\n";
    }
  }
  table.print(std::cout);
  return 0;
}

int main(int argc, char** argv) {
  return amri::bench::guarded_main(bench_main, argc, argv);
}
