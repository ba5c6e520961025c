// ABL-RETAIN — what to do with assessment statistics between tuning
// decisions: reset (fresh window, the paper-style segmented assessment),
// keep (continuous, slow to notice drift), or decay (aged history).
// The drifting workload punishes kKeep: stale hot patterns keep arguing
// for yesterday's index configuration.
#include <iostream>

#include "bench_util.hpp"

int bench_main(int argc, char** argv) {
  using namespace amri;
  using namespace amri::bench;

  const Config cfg = Config::from_args(argc, argv);
  EvalParams params = EvalParams::from_config(cfg);
  if (!cfg.has("sim_seconds")) params.duration_seconds = 240.0;
  if (!cfg.has("warmup")) params.warmup_seconds = 60.0;

  std::cout << "=== Ablation: statistics retention across tuning windows "
               "(AMRI, CDIA-hc) ===\n\n";
  TablePrinter table({"retention", "outputs", "migrations", "stat_peak_kb"});
  const MethodSpec method{"AMRI", engine::IndexBackend::kAmri,
                          assessment::AssessorKind::kCdiaHighestCount, 0};
  const std::pair<tuner::StatsRetention, const char*> modes[] = {
      {tuner::StatsRetention::kReset, "reset"},
      {tuner::StatsRetention::kKeep, "keep"},
      {tuner::StatsRetention::kDecay, "decay(0.25)"},
  };
  for (const auto& [mode, label] : modes) {
    const auto scenario = make_scenario(params);
    auto eopts = make_executor_options(scenario, params, method);
    eopts.stem.amri_tuner->retention = mode;
    engine::Executor ex(scenario.query(), eopts);
    const auto src = scenario.make_source();
    const auto r = ex.run(*src);
    std::uint64_t migrations = 0;
    for (const auto& s : r.states) migrations += s.migrations;
    table.add_row({label,
                   TablePrinter::fmt_int(static_cast<long long>(r.outputs)),
                   TablePrinter::fmt_int(static_cast<long long>(migrations)),
                   TablePrinter::fmt_int(
                       static_cast<long long>(r.peak_memory / 1024))});
    std::cerr << "[abl-retain] " << label << " outputs=" << r.outputs
              << "\n";
  }
  table.print(std::cout);
  return 0;
}

int main(int argc, char** argv) {
  return amri::bench::guarded_main(bench_main, argc, argv);
}
