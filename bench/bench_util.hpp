// Shared utilities for the figure/table reproduction benches: the paper's
// evaluation scenario with knobs exposed as key=value command-line
// overrides, and helpers to run one configuration and print curves.
#pragma once

#include <cctype>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/config.hpp"
#include "common/cost_meter.hpp"
#include "common/table_printer.hpp"
#include "engine/executor.hpp"
#include "index/index_optimizer.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/scenario.hpp"

namespace amri::bench {

/// Parameters of one evaluation run; defaults reproduce the paper's setup
/// at laptop scale (4-way join, 3 join attributes per state, drifting
/// selectivities, 64-bucket-word IC with a 12-bit practical budget).
struct EvalParams {
  // Workload (calibrated so a poorly-indexed system saturates, see below).
  std::size_t streams = 4;
  double rate_per_sec = 100.0;
  double window_seconds = 40.0;
  double phase_seconds = 45.0;
  std::int64_t hot_domain = 27;
  std::int64_t cold_domain = 95;
  std::uint64_t seed = 1;
  // Run shape (paper: ~25-30 minute runs incl. 15 min training; we scale
  // to 90 s training + 480 s measurement of virtual time).
  double warmup_seconds = 90.0;
  double duration_seconds = 480.0;
  double sample_seconds = 60.0;
  // Tuning.
  double epsilon = 0.05;  ///< paper: delta = .05
  double theta = 0.10;    ///< paper: theta = .1
  std::uint64_t reassess_every = 1500;
  int bit_budget = 8;
  int max_bits_per_attr = 8;
  // Environment.
  std::size_t memory_budget = 5767168;  ///< 5.5 MiB logical budget
  double exploration_rate = 0.10;
  // Modelled operation costs (virtual microseconds). Calibrated so the
  // paper's workload saturates a poorly-indexed system (full scans fall
  // behind the arrival schedule) while a well-tuned index keeps up —
  // reproducing the throughput separation and OOM deaths of Figures 6/7.
  double hash_cost = 0.25;
  double compare_cost = 0.35;
  double bucket_cost = 0.1;
  double route_cost = 0.1;
  double insert_cost = 0.1;

  static EvalParams from_config(const Config& cfg) {
    EvalParams p;
    p.streams = static_cast<std::size_t>(
        cfg.int_or("streams", static_cast<std::int64_t>(p.streams)));
    p.rate_per_sec = cfg.double_or("rate", p.rate_per_sec);
    p.window_seconds = cfg.double_or("window", p.window_seconds);
    p.phase_seconds = cfg.double_or("phase", p.phase_seconds);
    p.hot_domain = cfg.int_or("hot_domain", p.hot_domain);
    p.cold_domain = cfg.int_or("cold_domain", p.cold_domain);
    p.seed = static_cast<std::uint64_t>(cfg.int_or("seed", 1));
    p.warmup_seconds = cfg.double_or("warmup", p.warmup_seconds);
    p.duration_seconds = cfg.double_or("sim_seconds", p.duration_seconds);
    p.sample_seconds = cfg.double_or("sample", p.sample_seconds);
    p.epsilon = cfg.double_or("epsilon", p.epsilon);
    p.theta = cfg.double_or("theta", p.theta);
    p.reassess_every = static_cast<std::uint64_t>(
        cfg.int_or("reassess_every", static_cast<std::int64_t>(p.reassess_every)));
    p.bit_budget = static_cast<int>(cfg.int_or("bits", p.bit_budget));
    p.max_bits_per_attr =
        static_cast<int>(cfg.int_or("max_bits", p.max_bits_per_attr));
    p.memory_budget = static_cast<std::size_t>(
        cfg.int_or("memory_budget", static_cast<std::int64_t>(p.memory_budget)));
    p.exploration_rate = cfg.double_or("explore", p.exploration_rate);
    p.hash_cost = cfg.double_or("c_h", p.hash_cost);
    p.compare_cost = cfg.double_or("c_c", p.compare_cost);
    p.bucket_cost = cfg.double_or("c_b", p.bucket_cost);
    p.route_cost = cfg.double_or("c_r", p.route_cost);
    p.insert_cost = cfg.double_or("c_i", p.insert_cost);
    // A non-positive sampling interval would never advance the sample
    // clock; the executor rejects it too, but only once a bench has
    // printed its header.
    if (!(p.sample_seconds > 0.0) ||
        seconds_to_micros(p.sample_seconds) <= 0) {
      std::ostringstream value;
      value << p.sample_seconds;
      throw std::invalid_argument("bench: sample = " + value.str() +
                                  " s is not a positive sampling interval");
    }
    // The cost meter and the optimizer own the limits of these options:
    // check them before a bench builds or prints anything.
    CostMeter(nullptr, p.cost_params());
    index::OptimizerOptions limits;
    limits.bit_budget = p.bit_budget;
    limits.max_bits_per_attr = p.max_bits_per_attr;
    index::IndexOptimizer(index::CostModel(index::WorkloadParams{}), limits);
    return p;
  }

  /// The metered unit costs (deletes cost what inserts cost).
  CostParams cost_params() const {
    CostParams c;
    c.hash_cost_us = hash_cost;
    c.compare_cost_us = compare_cost;
    c.bucket_visit_cost_us = bucket_cost;
    c.route_cost_us = route_cost;
    c.insert_cost_us = insert_cost;
    c.delete_cost_us = insert_cost;
    return c;
  }
};

/// A bench's main: runs `body` and turns an exception that escapes it (an
/// option the engine rejects, say) into its message on stderr and exit
/// code 1 instead of an abort.
inline int guarded_main(int (*body)(int, char**), int argc, char** argv) {
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
}

/// A named run configuration: backend + assessor.
struct MethodSpec {
  std::string label;
  engine::IndexBackend backend = engine::IndexBackend::kAmri;
  assessment::AssessorKind assessor =
      assessment::AssessorKind::kCdiaHighestCount;
  std::size_t max_modules = 3;  ///< access-module backends
};

inline workload::Scenario make_scenario(const EvalParams& p) {
  workload::ScenarioOptions o;
  o.streams = p.streams;
  o.rate_per_sec = p.rate_per_sec;
  o.window_seconds = p.window_seconds;
  o.phase_seconds = p.phase_seconds;
  o.num_phases = 512;  // effectively unbounded drift
  o.hot_domain = p.hot_domain;
  o.cold_domain = p.cold_domain;
  o.seed = p.seed;
  o.generate_seconds = 0.0;  // unbounded source; executor stops the run
  return workload::Scenario(workload::ScenarioOptions(o));
}

inline engine::ExecutorOptions make_executor_options(
    const workload::Scenario& sc, const EvalParams& p, const MethodSpec& m) {
  auto eopts = sc.default_executor_options();
  eopts.costs = p.cost_params();
  eopts.model_params.hash_cost = p.hash_cost;
  eopts.model_params.compare_cost = p.compare_cost;
  eopts.model_params.bucket_cost = p.bucket_cost;
  eopts.duration = seconds_to_micros(p.duration_seconds);
  eopts.warmup = seconds_to_micros(p.warmup_seconds);
  eopts.sample_every = seconds_to_micros(p.sample_seconds);
  eopts.memory_budget = p.memory_budget;
  eopts.eddy.routing.exploration_rate = p.exploration_rate;
  eopts.eddy.routing.seed = p.seed * 7919 + 13;

  eopts.stem.backend = m.backend;
  const std::size_t n = sc.query().layout(0).jas.size();
  // Even starting allocation over the budget.
  std::vector<std::uint8_t> bits(n, 0);
  for (int b = 0; b < p.bit_budget; ++b) {
    ++bits[static_cast<std::size_t>(b) % n];
  }
  eopts.stem.initial_config = index::IndexConfig(bits);
  // Access-module backends start with single-attribute modules.
  eopts.stem.initial_modules.clear();
  for (std::size_t i = 0; i < n && i < m.max_modules; ++i) {
    eopts.stem.initial_modules.push_back(AttrMask{1} << i);
  }

  tuner::TunerOptions t;
  t.assessor = m.assessor;
  t.assessor_params.epsilon = p.epsilon;
  t.assessor_params.seed = p.seed * 31 + 5;
  t.theta = p.theta;
  t.reassess_every = p.reassess_every;
  t.optimizer.bit_budget = p.bit_budget;
  t.optimizer.max_bits_per_attr = p.max_bits_per_attr;
  eopts.stem.amri_tuner = t;

  tuner::HashTunerOptions ht;
  ht.assessor = m.assessor;
  ht.assessor_params.epsilon = p.epsilon;
  ht.assessor_params.seed = p.seed * 31 + 5;
  ht.theta = p.theta;
  ht.reassess_every = p.reassess_every;
  ht.max_modules = m.max_modules;
  eopts.stem.module_tuner = ht;
  return eopts;
}

/// Run one method over the shared scenario. With `telemetry` set the run is
/// fully instrumented (events + metrics land in the handle for export).
inline engine::RunResult run_method(const workload::Scenario& sc,
                                    const EvalParams& p, const MethodSpec& m,
                                    telemetry::Telemetry* telemetry = nullptr) {
  auto eopts = make_executor_options(sc, p, m);
  eopts.telemetry = telemetry;
  engine::Executor ex(sc.query(), eopts);
  const auto src = sc.make_source();
  return ex.run(*src);
}

/// If the config carries trace_out=<prefix> (or --trace-out <prefix>),
/// dump `telemetry` to <prefix>_<label>.jsonl. Benches call this once per
/// method run so every method's trace lands in its own file.
inline void maybe_write_trace(const Config& cfg,
                              const telemetry::Telemetry& telemetry,
                              const std::string& label) {
  const auto prefix = cfg.get_string("trace_out");
  if (!prefix) return;
  std::string slug = label;
  for (char& c : slug) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '-' ||
          c == '_')) {
      c = '_';
    }
  }
  const std::string path = *prefix + "_" + slug + ".jsonl";
  if (telemetry::write_trace_file(path, telemetry)) {
    std::cerr << "trace: wrote " << path << "\n";
  } else {
    std::cerr << "trace: cannot write " << path << "\n";
  }
}

/// If the config carries json=<path> (or --json <path>), dump `records`
/// to that path in the shared bench-JSON schema (bench_json.hpp), the
/// format tools/run_bench.py aggregates into BENCH_<date>.json.
inline void maybe_write_json(const Config& cfg,
                             const std::vector<BenchRecord>& records) {
  const auto path = cfg.get_string("json");
  if (!path) return;
  if (write_bench_json(*path, records)) {
    std::cerr << "bench-json: wrote " << *path << " (" << records.size()
              << " records)\n";
  } else {
    std::cerr << "bench-json: cannot write " << *path << "\n";
  }
}

/// The standard per-method summary records every figure bench emits:
/// final outputs, death time (-1 while alive), and peak memory.
inline void append_run_records(std::vector<BenchRecord>& records,
                               const std::string& bench,
                               const std::string& label,
                               const engine::RunResult& r) {
  const std::string key = bench + "/" + label;
  records.push_back(
      {key, "outputs", static_cast<double>(r.outputs)});
  records.push_back({key, "died_at_sec",
                     r.died_at ? micros_to_seconds(*r.died_at) : -1.0});
  records.push_back(
      {key, "peak_memory_bytes", static_cast<double>(r.peak_memory)});
}

/// If the config carries csv_dir=<path>, dump `table` to
/// <path>/<name>.csv (directory must exist) and report where it went.
inline void maybe_write_csv(const Config& cfg, const TablePrinter& table,
                            const std::string& name) {
  const auto dir = cfg.get_string("csv_dir");
  if (!dir) return;
  const std::string path = *dir + "/" + name + ".csv";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "csv: cannot write " << path << "\n";
    return;
  }
  table.print_csv(out);
  std::cerr << "csv: wrote " << path << "\n";
}

/// Build the side-by-side curve table (also reusable for CSV export).
inline TablePrinter curve_table(const std::vector<MethodSpec>& methods,
                                const std::vector<engine::RunResult>& results,
                                TimeMicros duration,
                                TimeMicros sample_every) {
  std::vector<std::string> header = {"t_sec"};
  for (const auto& m : methods) header.push_back(m.label);
  TablePrinter table(std::move(header));
  for (TimeMicros t = 0; t <= duration; t += sample_every) {
    std::vector<std::string> row = {
        TablePrinter::fmt(micros_to_seconds(t), 0)};
    for (const auto& r : results) {
      const bool dead = r.died_at.has_value() && *r.died_at <= t;
      row.push_back(TablePrinter::fmt_int(
                        static_cast<long long>(r.outputs_at(t))) +
                    (dead ? " (dead)" : ""));
    }
    table.add_row(std::move(row));
  }
  return table;
}

/// Print the cumulative-throughput curves of several runs side by side.
inline void print_curves(std::ostream& os,
                         const std::vector<MethodSpec>& methods,
                         const std::vector<engine::RunResult>& results,
                         TimeMicros duration, TimeMicros sample_every) {
  curve_table(methods, results, duration, sample_every).print(os);
}

}  // namespace amri::bench
