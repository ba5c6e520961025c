// FIG6-A — Paper Figure 6 (index assessment methods): cumulative
// throughput of the AMRI bit-address index tuned by each assessment
// method — SRIA, CSRIA, DIA, CDIA-random, CDIA-highest-count — over the
// drifting 4-way-join workload (delta = .05, theta = .1).
//
// Expected shape (paper §V): both CDIA variants on top, CDIA-hc best
// (+~19% over DIA/SRIA, +~30% over CSRIA); DIA == SRIA (same statistics,
// nothing compressed).
//
// Usage: fig6_assessment [key=value ...]   e.g. sim_seconds=300 seed=7
#include <iostream>

#include "bench_util.hpp"

int bench_main(int argc, char** argv) {
  using namespace amri;
  using namespace amri::bench;

  const Config cfg = Config::from_args(argc, argv);
  const EvalParams params = EvalParams::from_config(cfg);
  // Assessment-method differences are second-order (±20% in the paper), so
  // aggregate across a few workload seeds to beat run-to-run variance.
  const auto num_seeds = static_cast<std::uint64_t>(cfg.int_or("seeds", 2));

  const std::vector<MethodSpec> methods = {
      {"SRIA", engine::IndexBackend::kAmri, assessment::AssessorKind::kSria, 0},
      {"CSRIA", engine::IndexBackend::kAmri, assessment::AssessorKind::kCsria, 0},
      {"DIA", engine::IndexBackend::kAmri, assessment::AssessorKind::kDia, 0},
      {"CDIA-random", engine::IndexBackend::kAmri,
       assessment::AssessorKind::kCdiaRandom, 0},
      {"CDIA-hc", engine::IndexBackend::kAmri,
       assessment::AssessorKind::kCdiaHighestCount, 0},
  };

  std::cout << "=== Figure 6: AMRI throughput by assessment method ===\n"
            << "workload: 4-way join, 3 join attrs/state, drifting "
               "selectivities; epsilon=" << params.epsilon
            << " theta=" << params.theta << "\n\n";

  std::vector<engine::RunResult> first_seed_results;
  std::vector<std::uint64_t> total_outputs(methods.size(), 0);
  std::vector<std::uint64_t> total_migrations(methods.size(), 0);
  std::vector<std::size_t> peak_memory(methods.size(), 0);
  for (std::uint64_t s = 0; s < num_seeds; ++s) {
    EvalParams p = params;
    p.seed = params.seed + s;
    const auto scenario = make_scenario(p);
    for (std::size_t i = 0; i < methods.size(); ++i) {
      // Trace only the first seed: one JSONL file per method.
      const bool tracing = s == 0 && cfg.has("trace_out");
      telemetry::Telemetry telemetry;
      auto r = run_method(scenario, p, methods[i],
                          tracing ? &telemetry : nullptr);
      if (tracing) maybe_write_trace(cfg, telemetry, methods[i].label);
      std::cerr << "[fig6] seed=" << p.seed << " " << methods[i].label
                << ": outputs=" << r.outputs << "\n";
      total_outputs[i] += r.outputs;
      for (const auto& st : r.states) total_migrations[i] += st.migrations;
      peak_memory[i] = std::max(peak_memory[i], r.peak_memory);
      if (s == 0) first_seed_results.push_back(std::move(r));
    }
  }

  std::cout << "--- cumulative throughput curves (seed "
            << params.seed << ") ---\n";
  print_curves(std::cout, methods, first_seed_results,
               seconds_to_micros(params.duration_seconds),
               seconds_to_micros(params.sample_seconds));

  std::cout << "\n--- totals over " << num_seeds
            << " seed(s) (cumulative output tuples) ---\n";
  TablePrinter totals({"method", "outputs", "vs CDIA-hc", "migrations",
                       "peak_mem_kb"});
  const double best = static_cast<double>(total_outputs.back());
  for (std::size_t i = 0; i < methods.size(); ++i) {
    totals.add_row(
        {methods[i].label,
         TablePrinter::fmt_int(static_cast<long long>(total_outputs[i])),
         TablePrinter::fmt_pct(
             best > 0 ? static_cast<double>(total_outputs[i]) / best : 0.0),
         TablePrinter::fmt_int(static_cast<long long>(total_migrations[i])),
         TablePrinter::fmt_int(
             static_cast<long long>(peak_memory[i] / 1024))});
  }
  totals.print(std::cout);
  maybe_write_csv(cfg, totals, "fig6_assessment_totals");
  maybe_write_csv(cfg,
                  curve_table(methods, first_seed_results,
                              seconds_to_micros(params.duration_seconds),
                              seconds_to_micros(params.sample_seconds)),
                  "fig6_assessment_curves");
  std::vector<BenchRecord> records;
  for (std::size_t i = 0; i < methods.size(); ++i) {
    records.push_back({"fig6_assessment/" + methods[i].label, "outputs",
                       static_cast<double>(total_outputs[i])});
    records.push_back({"fig6_assessment/" + methods[i].label, "migrations",
                       static_cast<double>(total_migrations[i])});
    records.push_back({"fig6_assessment/" + methods[i].label,
                       "peak_memory_bytes",
                       static_cast<double>(peak_memory[i])});
  }
  maybe_write_json(cfg, records);

  const double sria = static_cast<double>(total_outputs[0]);
  const double csria = static_cast<double>(total_outputs[1]);
  if (sria > 0 && csria > 0) {
    std::cout << "\nCDIA-hc vs SRIA/DIA: "
              << TablePrinter::fmt_pct(best / sria - 1.0)
              << " (paper: +19%)\nCDIA-hc vs CSRIA:    "
              << TablePrinter::fmt_pct(best / csria - 1.0)
              << " (paper: +30%)\n";
  }
  return 0;
}

int main(int argc, char** argv) {
  return amri::bench::guarded_main(bench_main, argc, argv);
}
