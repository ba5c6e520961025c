// ADV-SUITE — the adversarial scenario matrix: every named scenario from
// src/workload/adversarial.hpp run twice, with the tuner's production
// guardrails off (legacy always-migrate rule) and on (default
// GuardrailOptions). Per run it records migrations, guardrail-suppressed
// decisions, outputs, death time, peak memory, and the end-state probe
// cost (mean realized probe cost over the final third of the run, read
// off the tuner decision timeline); per scenario it derives the
// migration-cut ratio and the end-state probe-cost ratio — the
// thrash-containment headline (rotating_hot_set: guardrails must cut
// migrations >= 5x without degrading end-state probe cost).
//
//   ./adversarial_suite [scenario=<name|all>] [sim_seconds=60] [rate=50]
//       [json=<path>] [trace_out=<prefix>]
//
// With trace_out=<prefix> every run's full telemetry (including the
// per-decision guardrail verdicts) is written to
// <prefix>_<scenario>_<legacy|guardrails>.jsonl — the CI artifact.
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "workload/adversarial.hpp"

namespace {

using namespace amri;

/// Pull a numeric field out of a prebuilt JSON payload fragment. Bench-
/// grade scanning (the payloads are machine-written by JsonWriter, so
/// `"name":` occurs exactly once, unquoted).
bool payload_number(const std::string& payload, const std::string& name,
                    double& out) {
  const std::string needle = "\"" + name + "\":";
  const auto pos = payload.find(needle);
  if (pos == std::string::npos) return false;
  const char* start = payload.c_str() + pos + needle.size();
  char* end = nullptr;
  const double v = std::strtod(start, &end);
  if (end == start) return false;
  out = v;
  return true;
}

/// Mean realized probe cost over tuner decisions at t >= tail_start: the
/// "end-state" probe cost once the tuner has settled (or kept thrashing).
double tail_realized_probe_us(const telemetry::Telemetry& telemetry,
                              TimeMicros tail_start) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& ev : telemetry.events().snapshot()) {
    if (ev.kind != telemetry::EventKind::kTunerDecision) continue;
    if (ev.t < tail_start) continue;
    double realized = -1.0;
    if (payload_number(ev.payload, "realized_probe_us", realized) &&
        realized >= 0.0) {
      sum += realized;
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : -1.0;
}

struct RunStats {
  std::uint64_t migrations = 0;
  std::uint64_t suppressed = 0;
  std::uint64_t outputs = 0;
  double died_at_sec = -1.0;
  std::size_t peak_memory = 0;
  double tail_probe_us = -1.0;
};

}  // namespace

int bench_main(int argc, char** argv) {
  using namespace amri::bench;

  const Config cfg = Config::from_args(argc, argv);
  const double sim_seconds = cfg.double_or("sim_seconds", 60.0);
  const double rate = cfg.double_or("rate", 80.0);
  const auto seed = static_cast<std::uint64_t>(cfg.int_or("seed", 1));
  const std::string which = cfg.string_or("scenario", "all");

  std::vector<std::string> names;
  if (which == "all") {
    names = workload::AdversarialScenario::names();
  } else {
    names.push_back(which);
  }

  std::cout << "=== Adversarial scenario matrix (guardrails off/on, "
            << sim_seconds << "s) ===\n\n";
  TablePrinter table({"scenario", "guardrails", "migrations", "suppressed",
                      "tail_probe_us", "outputs", "died_at_sec"});
  std::vector<BenchRecord> records;

  for (const auto& name : names) {
    RunStats stats[2];
    for (int guarded = 0; guarded < 2; ++guarded) {
      workload::AdversarialOptions aopts;
      aopts.rate_per_sec = rate;
      aopts.seed = seed;
      aopts.generate_seconds = 0.0;  // unbounded; the executor stops the run
      const auto scenario = workload::AdversarialScenario::make(name, aopts);

      auto eopts = scenario->executor_options();
      eopts.duration = seconds_to_micros(sim_seconds);
      eopts.sample_every = seconds_to_micros(sim_seconds / 6.0);
      eopts.stem.backend = engine::IndexBackend::kAmri;
      const std::size_t n_attrs = scenario->query().layout(0).jas.size();
      constexpr int kBitBudget = 8;
      std::vector<std::uint8_t> bits(n_attrs, 0);
      for (int b = 0; b < kBitBudget; ++b) {
        ++bits[static_cast<std::size_t>(b) % n_attrs];
      }
      eopts.stem.initial_config = index::IndexConfig(bits);
      tuner::TunerOptions topts;
      topts.optimizer.bit_budget = kBitBudget;
      if (guarded != 0) {
        tuner::GuardrailOptions g;  // default production settings
        g.enabled = true;
        topts.guardrails = g;
      }
      eopts.stem.amri_tuner = topts;

      telemetry::TelemetryOptions tel_opts;
      tel_opts.event_capacity = cfg.size_or("event_capacity", 1u << 19);
      telemetry::Telemetry telemetry(tel_opts);
      eopts.telemetry = &telemetry;

      engine::Executor ex(scenario->query(), eopts);
      const auto source = scenario->make_source();
      const auto r = ex.run(*source);

      RunStats& s = stats[guarded];
      for (const auto& st : r.states) {
        s.migrations += st.migrations;
        s.suppressed += st.suppressed;
      }
      s.outputs = r.outputs;
      s.died_at_sec = r.died_at ? micros_to_seconds(*r.died_at) : -1.0;
      s.peak_memory = r.peak_memory;
      s.tail_probe_us = tail_realized_probe_us(
          telemetry, seconds_to_micros(sim_seconds * 2.0 / 3.0));

      const std::string label = guarded != 0 ? "guardrails" : "legacy";
      table.add_row({name, label,
                     TablePrinter::fmt_int(
                         static_cast<long long>(s.migrations)),
                     TablePrinter::fmt_int(
                         static_cast<long long>(s.suppressed)),
                     s.tail_probe_us >= 0.0 ? TablePrinter::fmt(s.tail_probe_us)
                                            : "-",
                     TablePrinter::fmt_int(static_cast<long long>(s.outputs)),
                     s.died_at_sec >= 0.0 ? TablePrinter::fmt(s.died_at_sec, 0)
                                          : "-"});

      const std::string key = name + "/" + label;
      records.push_back(
          {key, "migrations", static_cast<double>(s.migrations)});
      records.push_back(
          {key, "suppressed", static_cast<double>(s.suppressed)});
      records.push_back({key, "tail_probe_us", s.tail_probe_us});
      records.push_back({key, "outputs", static_cast<double>(s.outputs)});
      records.push_back({key, "died_at_sec", s.died_at_sec});
      records.push_back(
          {key, "peak_memory_bytes", static_cast<double>(s.peak_memory)});
      maybe_write_trace(cfg, telemetry, name + "_" + label);
      std::cerr << "[adv-suite] " << name << " " << label
                << " migrations=" << s.migrations
                << " suppressed=" << s.suppressed
                << " tail_probe_us=" << s.tail_probe_us << "\n";
    }
    // Headline ratios: legacy / guarded migrations (thrash cut; higher is
    // better) and guarded / legacy end-state probe cost (<= 1.1 required).
    if (stats[1].migrations > 0) {
      records.push_back({name, "migration_cut",
                         static_cast<double>(stats[0].migrations) /
                             static_cast<double>(stats[1].migrations)});
    }
    if (stats[0].tail_probe_us > 0.0 && stats[1].tail_probe_us >= 0.0) {
      records.push_back({name, "tail_probe_ratio",
                         stats[1].tail_probe_us / stats[0].tail_probe_us});
    }
  }

  table.print(std::cout);
  maybe_write_json(cfg, records);
  return 0;
}

int main(int argc, char** argv) {
  return amri::bench::guarded_main(bench_main, argc, argv);
}
