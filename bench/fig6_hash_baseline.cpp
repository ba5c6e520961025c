// FIG6-B — Paper Figure 6 (state-of-art AMR hash indexing): the
// access-module baseline [Raman et al.] with 1..7 hash indices per state,
// tuned with CDIA-hc + conventional selection, under the same workload and
// memory budget as AMRI. The paper observes every configuration dying of
// memory exhaustion within half the run (few indices -> scan backlog; many
// indices -> maintenance + per-tuple key-link memory).
//
// Usage: fig6_hash_baseline [key=value ...]
#include <iostream>

#include "bench_util.hpp"

int bench_main(int argc, char** argv) {
  using namespace amri;
  using namespace amri::bench;

  const Config cfg = Config::from_args(argc, argv);
  EvalParams params = EvalParams::from_config(cfg);
  if (!cfg.has("memory_budget")) {
    // Tighter default budget than the other figures: the paper's point is
    // that multi-hash maintenance memory (per-tuple key links x modules)
    // exhausts the system, so set the budget between AMRI's footprint and
    // the heavier module configurations'.
    params.memory_budget = 4404019;  // 4.2 MiB
  }
  const auto scenario = make_scenario(params);

  std::cout << "=== Figure 6: access-module baseline, 1..7 hash indices ===\n"
            << "memory budget: " << params.memory_budget / 1024
            << " KiB, run length: " << params.duration_seconds
            << " sim-seconds\n\n";

  std::vector<MethodSpec> methods;
  for (std::size_t k = 1; k <= 7; ++k) {
    methods.push_back(MethodSpec{"hash x" + std::to_string(k),
                                 engine::IndexBackend::kAccessModules,
                                 assessment::AssessorKind::kCdiaHighestCount,
                                 k});
  }
  // AMRI reference under the identical budget.
  methods.push_back(MethodSpec{"AMRI", engine::IndexBackend::kAmri,
                               assessment::AssessorKind::kCdiaHighestCount, 0});

  const bool tracing = cfg.has("trace_out");
  std::vector<engine::RunResult> results;
  for (const auto& m : methods) {
    telemetry::Telemetry telemetry;
    results.push_back(run_method(scenario, params, m,
                                 tracing ? &telemetry : nullptr));
    if (tracing) maybe_write_trace(cfg, telemetry, m.label);
    std::cerr << "[fig6b] " << m.label << ": outputs="
              << results.back().outputs
              << (results.back().died_at
                      ? " died_at=" + TablePrinter::fmt(
                            micros_to_seconds(*results.back().died_at), 0)
                      : std::string(" survived"))
              << "\n";
  }

  TablePrinter table({"config", "outputs", "died_at_sec", "peak_mem_kb",
                      "scan_fallback_states", "dropped_arrivals"});
  for (std::size_t i = 0; i < methods.size(); ++i) {
    const auto& r = results[i];
    table.add_row(
        {methods[i].label,
         TablePrinter::fmt_int(static_cast<long long>(r.outputs)),
         r.died_at ? TablePrinter::fmt(micros_to_seconds(*r.died_at), 0)
                   : "-",
         TablePrinter::fmt_int(static_cast<long long>(r.peak_memory / 1024)),
         TablePrinter::fmt_int(static_cast<long long>(r.states.size())),
         TablePrinter::fmt_int(
             static_cast<long long>(r.arrivals_dropped))});
  }
  table.print(std::cout);
  maybe_write_csv(cfg, table, "fig6_hash_baseline");
  std::vector<BenchRecord> records;
  for (std::size_t i = 0; i < methods.size(); ++i) {
    append_run_records(records, "fig6_hash_baseline", methods[i].label,
                       results[i]);
  }
  maybe_write_json(cfg, records);

  // Paper claim: AMRI produces ~93% more results than the best hash config.
  std::uint64_t best_hash = 0;
  for (std::size_t i = 0; i + 1 < results.size(); ++i) {
    best_hash = std::max(best_hash, results[i].outputs);
  }
  const std::uint64_t amri = results.back().outputs;
  if (best_hash > 0) {
    std::cout << "\nAMRI vs best hash configuration: "
              << TablePrinter::fmt_pct(
                     static_cast<double>(amri) / best_hash - 1.0)
              << " more results (paper: +93%)\n";
  }
  return 0;
}

int main(int argc, char** argv) {
  return amri::bench::guarded_main(bench_main, argc, argv);
}
