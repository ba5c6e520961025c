#include "telemetry/profiler.hpp"

#include <cassert>
#include <ostream>
#include <string>

#include "common/table_printer.hpp"

namespace amri::telemetry {

namespace {

double elapsed_us(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

constexpr std::array<Phase, kNumPhases> kAllPhases = {
    Phase::kDrain,        Phase::kExpiry,     Phase::kInsert,
    Phase::kRoute,        Phase::kProbe,      Phase::kSnapshotMerge,
    Phase::kTunerEpoch,   Phase::kMigration,  Phase::kSample,
    Phase::kOverlapWait,
};

}  // namespace

const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kDrain: return "drain";
    case Phase::kExpiry: return "expiry";
    case Phase::kInsert: return "insert";
    case Phase::kRoute: return "route";
    case Phase::kProbe: return "probe";
    case Phase::kSnapshotMerge: return "snapshot_merge";
    case Phase::kTunerEpoch: return "tuner_epoch";
    case Phase::kMigration: return "migration";
    case Phase::kSample: return "sample";
    case Phase::kOverlapWait: return "overlap_wait";
  }
  return "unknown";
}

Profiler::Profiler(MetricsRegistry& registry) {
  // Per-scope durations span sub-microsecond probes to multi-millisecond
  // migrations; 24 exponential buckets cover 0.1us .. ~1.6s.
  for (const Phase p : kAllPhases) {
    const std::string base = std::string("profile.") + phase_name(p);
    scope_us_[index(p)] = &registry.histogram(
        base + ".scope_us", Histogram::exponential_bounds(0.1, 2.0, 24));
    exclusive_gauge_[index(p)] = &registry.gauge(base + ".exclusive_us");
  }
}

void Profiler::start(Phase phase) {
  const Clock::time_point now = Clock::now();
  if (depth_ > 0 && depth_ <= kMaxDepth) {
    exclusive_us_[index(stack_[depth_ - 1].phase)] +=
        elapsed_us(last_mark_, now);
  }
  if (depth_ < kMaxDepth) stack_[depth_] = Frame{phase, now};
  ++depth_;
  ++entries_[index(phase)];
  last_mark_ = now;
}

void Profiler::stop() {
  assert(depth_ > 0 && "ScopedPhase imbalance");
  if (depth_ == 0) return;
  const Clock::time_point now = Clock::now();
  if (depth_ <= kMaxDepth) {
    const Frame& frame = stack_[depth_ - 1];
    const std::size_t i = index(frame.phase);
    exclusive_us_[i] += elapsed_us(last_mark_, now);
    exclusive_gauge_[i]->set(exclusive_us_[i]);
    scope_us_[i]->observe(elapsed_us(frame.scope_start, now));
  }
  --depth_;
  last_mark_ = now;
}

Profiler::PhaseStats Profiler::stats(Phase phase) const {
  return PhaseStats{entries_[index(phase)], exclusive_us_[index(phase)]};
}

double Profiler::total_exclusive_us() const {
  double total = 0.0;
  for (const double us : exclusive_us_) total += us;
  return total;
}

const Histogram& Profiler::scope_histogram(Phase phase) const {
  return *scope_us_[index(phase)];
}

void print_phase_table(std::ostream& os, const Profiler& profiler,
                       double run_wall_us) {
  TablePrinter table({"phase", "scopes", "excl_ms", "%run", "p50_us",
                      "p95_us", "p99_us", "max_us"});
  for (const Phase p : kAllPhases) {
    const Profiler::PhaseStats s = profiler.stats(p);
    if (s.entries == 0) continue;
    const Histogram& h = profiler.scope_histogram(p);
    const double share =
        run_wall_us > 0.0 ? s.exclusive_us / run_wall_us : 0.0;
    table.add_row({phase_name(p),
                   TablePrinter::fmt_int(static_cast<long long>(s.entries)),
                   TablePrinter::fmt(s.exclusive_us / 1000.0),
                   TablePrinter::fmt_pct(share),
                   TablePrinter::fmt(h.percentile(0.50)),
                   TablePrinter::fmt(h.percentile(0.95)),
                   TablePrinter::fmt(h.percentile(0.99)),
                   TablePrinter::fmt(h.max_observed())});
  }
  const double covered =
      run_wall_us > 0.0 ? profiler.total_exclusive_us() / run_wall_us : 0.0;
  table.print(os);
  os << "profiled " << TablePrinter::fmt(profiler.total_exclusive_us() / 1000.0)
     << " ms of " << TablePrinter::fmt(run_wall_us / 1000.0) << " ms run wall ("
     << TablePrinter::fmt_pct(covered) << ")\n";
}

}  // namespace amri::telemetry
