// ABL-BURST — robustness under bursty, regime-switching arrivals: the
// fluctuation-heavy environment the paper's introduction motivates (and
// the closest synthetic stand-in for its tech-report real-data traces).
// Bursts multiply arrival rates; an index that is wrong for the moment's
// access patterns falls behind during bursts and accumulates backlog.
#include <iostream>

#include "bench_util.hpp"
#include "workload/bursty_source.hpp"

int bench_main(int argc, char** argv) {
  using namespace amri;
  using namespace amri::bench;

  const Config cfg = Config::from_args(argc, argv);
  EvalParams params = EvalParams::from_config(cfg);
  if (!cfg.has("sim_seconds")) params.duration_seconds = 240.0;
  if (!cfg.has("warmup")) params.warmup_seconds = 60.0;
  const double burst_mult = cfg.double_or("burst", 3.0);

  std::cout << "=== Ablation: bursty arrivals (burst x" << burst_mult
            << ") ===\n\n";
  const std::vector<MethodSpec> methods = {
      {"AMRI", engine::IndexBackend::kAmri,
       assessment::AssessorKind::kCdiaHighestCount, 0},
      {"static-bitmap", engine::IndexBackend::kStaticBitmap,
       assessment::AssessorKind::kCdiaHighestCount, 0},
      {"adaptive-hash", engine::IndexBackend::kAccessModules,
       assessment::AssessorKind::kCdiaHighestCount, 3},
  };
  TablePrinter table({"method", "outputs", "died_at_sec", "dropped",
                      "peak_mem_kb"});
  for (const auto& m : methods) {
    const auto scenario = make_scenario(params);
    auto eopts = make_executor_options(scenario, params, m);
    workload::BurstyOptions bopts;
    bopts.base_rates_per_sec.assign(params.rate_per_sec > 0 ? 4 : 4,
                                    params.rate_per_sec * 0.7);
    bopts.burst_multiplier = burst_mult;
    bopts.seed = params.seed;
    workload::BurstySource src(scenario.query(), scenario.schedule(), bopts);
    engine::Executor ex(scenario.query(), eopts);
    const auto r = ex.run(src);
    table.add_row(
        {m.label, TablePrinter::fmt_int(static_cast<long long>(r.outputs)),
         r.died_at ? TablePrinter::fmt(micros_to_seconds(*r.died_at), 0)
                   : "-",
         TablePrinter::fmt_int(static_cast<long long>(r.arrivals_dropped)),
         TablePrinter::fmt_int(
             static_cast<long long>(r.peak_memory / 1024))});
    std::cerr << "[abl-burst] " << m.label << " outputs=" << r.outputs
              << "\n";
  }
  table.print(std::cout);
  return 0;
}

int main(int argc, char** argv) {
  return amri::bench::guarded_main(bench_main, argc, argv);
}
