// FIG7 — Paper Figure 7 (overall comparison): cumulative results of
//   * AMRI  — bit-address index with CDIA-hc online tuning,
//   * the best adaptive hash (access-module) configuration,
//   * a non-adapting bit-address index (trained at warm-up, never retuned),
// under one memory budget. Paper: the hash baseline dies by ~half the run
// and AMRI ends +93% over it; the static bitmap dies later and AMRI ends
// +75% over it.
//
// Usage: fig7_overall [key=value ...]
#include <iostream>

#include "bench_util.hpp"

int bench_main(int argc, char** argv) {
  using namespace amri;
  using namespace amri::bench;

  const Config cfg = Config::from_args(argc, argv);
  const EvalParams params = EvalParams::from_config(cfg);
  const auto scenario = make_scenario(params);
  const auto hash_modules =
      static_cast<std::size_t>(cfg.int_or("hash_modules", 3));

  const std::vector<MethodSpec> methods = {
      {"AMRI", engine::IndexBackend::kAmri,
       assessment::AssessorKind::kCdiaHighestCount, 0},
      {"adaptive-hash", engine::IndexBackend::kAccessModules,
       assessment::AssessorKind::kCdiaHighestCount, hash_modules},
      {"static-bitmap", engine::IndexBackend::kStaticBitmap,
       assessment::AssessorKind::kCdiaHighestCount, 0},
  };

  std::cout << "=== Figure 7: AMRI vs state-of-art AMR indexing ===\n\n";

  const bool tracing = cfg.has("trace_out");
  std::vector<engine::RunResult> results;
  for (const auto& m : methods) {
    telemetry::Telemetry telemetry;
    results.push_back(run_method(scenario, params, m,
                                 tracing ? &telemetry : nullptr));
    if (tracing) maybe_write_trace(cfg, telemetry, m.label);
    std::cerr << "[fig7] " << m.label << ": outputs="
              << results.back().outputs << "\n";
  }

  print_curves(std::cout, methods, results,
               seconds_to_micros(params.duration_seconds),
               seconds_to_micros(params.sample_seconds));

  std::cout << "\n--- totals ---\n";
  TablePrinter table({"method", "outputs", "died_at_sec", "migrations",
                      "peak_mem_kb"});
  for (std::size_t i = 0; i < methods.size(); ++i) {
    const auto& r = results[i];
    std::uint64_t migrations = 0;
    for (const auto& s : r.states) migrations += s.migrations;
    table.add_row(
        {methods[i].label,
         TablePrinter::fmt_int(static_cast<long long>(r.outputs)),
         r.died_at ? TablePrinter::fmt(micros_to_seconds(*r.died_at), 0)
                   : "-",
         TablePrinter::fmt_int(static_cast<long long>(migrations)),
         TablePrinter::fmt_int(static_cast<long long>(r.peak_memory / 1024))});
  }
  table.print(std::cout);
  maybe_write_csv(cfg, table, "fig7_totals");
  std::vector<BenchRecord> records;
  for (std::size_t i = 0; i < methods.size(); ++i) {
    append_run_records(records, "fig7_overall", methods[i].label, results[i]);
  }
  maybe_write_json(cfg, records);
  maybe_write_csv(cfg,
                  curve_table(methods, results,
                              seconds_to_micros(params.duration_seconds),
                              seconds_to_micros(params.sample_seconds)),
                  "fig7_curves");

  const double amri = static_cast<double>(results[0].outputs);
  const double hash = static_cast<double>(results[1].outputs);
  const double bitmap = static_cast<double>(results[2].outputs);
  if (hash > 0) {
    std::cout << "\nAMRI vs adaptive hash:  "
              << TablePrinter::fmt_pct(amri / hash - 1.0)
              << " (paper: +93%)\n";
  }
  if (bitmap > 0) {
    std::cout << "AMRI vs static bitmap:  "
              << TablePrinter::fmt_pct(amri / bitmap - 1.0)
              << " (paper: +75%)\n";
  }
  return 0;
}

int main(int argc, char** argv) {
  return amri::bench::guarded_main(bench_main, argc, argv);
}
