// e2e_pipeline — one run of the end-to-end pipeline benchmark. It builds
// one workload's inputs from --seed, runs the executor once in the
// requested run kind, and prints one JSON object of measurements on
// stdout. e2e_bench.py (next to this file) runs it once per process,
// checks the records against each other and turns them into the
// benchmark's metrics; README.md defines the workloads and metrics.
//
//   e2e_pipeline --workload fig7_drift --kind plain [--seed 1] [--scale 1]
//
// Run kinds:
//   plain    telemetry detached: wall rate, set-up time and exact counts
//   latency  only on_result attached: virtual result latency
//   profile  phase profiler attached: per-layer wall times and registry
//            counts
//   span     trace_sample=16, no profiler: sampled wall latency per arrival
//   digest   build the inputs and print their digest; no run
//
// The benchmark adds no instrumentation to the engine: its own timers wrap
// only the calls it makes (executor construction, run(), the arrivals its
// TupleSource serves, on_result); everything else comes from the
// profiler, the metrics registry and public accessors.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "engine/executor.hpp"
#include "engine/multi_query.hpp"
#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/adversarial.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace amri;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// num / den, or 0 when nothing was counted.
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- workloads -------------------------------------------------------------

// churn_wall: the micro_wall_pipeline EngineChurn shape. kChurnBurst
// arrivals share each timestamp, bursts 1 ms of virtual time apart; the
// window spans kChurnWindow tuples, and a value domain of kChurnDomain
// gives ~20 window matches per probe.
constexpr std::size_t kChurnBurst = 512;
constexpr std::size_t kChurnWindow = 100000;
constexpr std::int64_t kChurnDomain = 5000;

/// Counter-based churn arrival: tuple i is a pure function of (seed, i),
/// so the run's 1.8M arrivals need no ~200 MB buffer and can be
/// regenerated for the digest.
Tuple churn_tuple(std::uint64_t seed, std::uint64_t i) {
  SplitMix64 mix(seed * 0x9e3779b97f4a7c15ULL + i);
  const std::uint64_t h = mix.next();
  Tuple t;
  t.stream = static_cast<StreamId>(h & 1U);
  t.ts = static_cast<TimeMicros>(1000 * (i / kChurnBurst));
  t.seq = static_cast<TupleSeq>(i);
  t.values.push_back(static_cast<Value>((h >> 1) % kChurnDomain));
  return t;
}

/// Everything one run needs, built before the executor and outside every
/// timer. `queries` outlives the executor (Executor keeps a reference).
struct Setup {
  std::vector<engine::QuerySpec> queries;  ///< >1 = MultiQueryExecutor
  engine::ExecutorOptions options;
  std::vector<Tuple> arrivals;      ///< replayed inputs (empty for churn)
  std::uint64_t churn_seed = 0;
  std::uint64_t churn_count = 0;    ///< counter-generated inputs (churn)
};

/// Even split of `bits` index bits over `n` attributes, the starting IC
/// every adaptive workload uses.
index::IndexConfig even_config(std::size_t n, int bits) {
  std::vector<std::uint8_t> alloc(std::max<std::size_t>(n, 1), 0);
  for (int b = 0; b < bits; ++b) {
    ++alloc[static_cast<std::size_t>(b) % alloc.size()];
  }
  return index::IndexConfig(alloc);
}

/// Pull `source` until its first arrival at or past `end` (inclusive):
/// the prefix an unbounded source would serve before the run stops.
std::vector<Tuple> drain_until(engine::TupleSource& source, TimeMicros end) {
  std::vector<Tuple> out;
  while (auto t = source.next()) {
    out.push_back(std::move(*t));
    if (out.back().ts >= end) break;
  }
  return out;
}

// Paper Fig. 7: the 4-way drifting-selectivity join with AMRI and the
// CDIA-hc tuner (no guardrails), at the fig7_overall settings except the
// rate: at 100/s per stream the join runs at modelled utilization ~1, where
// outputs and result latency swing by 25-50% between seeds; at 50/s (the
// scenario default) they stay within a few percent.
Setup fig7_drift(std::uint64_t seed, double scale) {
  workload::ScenarioOptions so;
  so.streams = 4;
  so.rate_per_sec = 50.0;
  so.window_seconds = 40.0;
  so.phase_seconds = 45.0;
  so.num_phases = 512;
  so.hot_domain = 27;
  so.cold_domain = 95;
  so.seed = seed;
  const workload::Scenario sc(so);

  constexpr double kHash = 0.25, kCompare = 0.35, kBucket = 0.1, kOther = 0.1;
  constexpr int kBits = 8;
  Setup s;
  s.queries = {sc.query()};
  auto& o = s.options;
  o = sc.default_executor_options();
  o.costs.hash_cost_us = kHash;
  o.costs.compare_cost_us = kCompare;
  o.costs.bucket_visit_cost_us = kBucket;
  o.costs.route_cost_us = kOther;
  o.costs.insert_cost_us = kOther;
  o.costs.delete_cost_us = kOther;
  o.model_params.hash_cost = kHash;
  o.model_params.compare_cost = kCompare;
  o.model_params.bucket_cost = kBucket;
  o.warmup = seconds_to_micros(90.0 * scale);
  o.duration = seconds_to_micros(480.0 * scale);
  o.sample_every = o.duration / 4;
  o.memory_budget = 5767168;  // 5.5 MiB
  o.eddy.routing.exploration_rate = 0.10;
  o.eddy.routing.seed = seed * 7919 + 13;
  o.stem.backend = engine::IndexBackend::kAmri;
  o.stem.initial_config = even_config(sc.query().layout(0).jas.size(), kBits);
  tuner::TunerOptions t;
  t.assessor = assessment::AssessorKind::kCdiaHighestCount;
  t.assessor_params.epsilon = 0.05;
  t.assessor_params.seed = seed * 31 + 5;
  t.theta = 0.10;
  t.reassess_every = 1500;
  t.optimizer.bit_budget = kBits;
  t.optimizer.max_bits_per_attr = kBits;
  o.stem.amri_tuner = t;
  const auto src = sc.make_source();
  s.arrivals = drain_until(*src, o.warmup + o.duration);
  return s;
}

// Two-stream bursty churn through --engine wall: static bitmap, fixed
// routing, WHERE filters on both streams, overlap and prefetch on. Batch
// 256 rather than 64: per batch, the hand-off to the overlap worker runs
// outside every profiler phase, and at 64 it leaves ~6% of the run wall
// unattributed.
Setup churn_wall(std::uint64_t seed, double scale) {
  Setup s;
  engine::QuerySpec q = engine::make_complete_join_query(
      2, seconds_to_micros(0.001 * (kChurnWindow / kChurnBurst)));
  q.set_selection(0, engine::Selection(
                         {engine::FilterPredicate{0, engine::CompareOp::kGe, 1},
                          engine::FilterPredicate{0, engine::CompareOp::kNe,
                                                  kChurnDomain}}));
  q.set_selection(1, engine::Selection({engine::FilterPredicate{
                         0, engine::CompareOp::kGe, 1}}));
  s.queries = {q};
  auto& o = s.options;
  o.warmup = seconds_to_micros(0.5 * scale);
  o.duration = seconds_to_micros(3.0 * scale);
  o.sample_every = o.duration / 4;
  o.engine = engine::EngineMode::kWall;
  o.batch_size = 256;
  o.stem.backend = engine::IndexBackend::kStaticBitmap;
  o.stem.initial_config = index::IndexConfig({17});
  o.eddy.routing.kind = engine::RoutingPolicyKind::kFixed;
  s.churn_seed = seed;
  // Bursts up to and including the first at or past the measured end.
  const auto end_ms =
      static_cast<std::uint64_t>((o.warmup + o.duration) / 1000);
  s.churn_count = (end_ms + 1) * kChurnBurst;
  return s;
}

/// The guardrailed AMRI tuner both adversarial workloads run, batch 64.
void guarded_amri(engine::ExecutorOptions& o, std::size_t attrs) {
  constexpr int kBits = 8;
  o.stem.backend = engine::IndexBackend::kAmri;
  o.stem.initial_config = even_config(attrs, kBits);
  tuner::TunerOptions t;
  t.optimizer.bit_budget = kBits;
  t.guardrails = tuner::GuardrailOptions{};
  t.guardrails->enabled = true;
  o.stem.amri_tuner = t;
  o.batch_size = 64;
}

// rotating_hot_set over 4 shards: fan-out probes through the pool, one
// core left for the driver thread. Two departures from the scenario's
// defaults keep the run comparable across seeds: uniform values (with
// Zipf skew, outputs swing ~20% between seeds) and fixed routing (with
// cost-based routing, the learned routes decide how many probes leave
// the shard attribute unbound and fan out, and wall time swings 6x).
Setup hotset_sharded(std::uint64_t seed, double scale) {
  workload::AdversarialOptions a;
  a.rate_per_sec = 80.0;
  a.seed = seed;
  a.zipf_exponent = 0.0;
  const auto sc = workload::AdversarialScenario::make("rotating_hot_set", a);
  Setup s;
  s.queries = {sc->query()};
  auto& o = s.options;
  o = sc->executor_options();
  o.warmup = seconds_to_micros(10.0 * scale);
  o.duration = seconds_to_micros(180.0 * scale);
  o.sample_every = o.duration / 4;
  guarded_amri(o, sc->query().layout(0).jas.size());
  o.eddy.routing.kind = engine::RoutingPolicyKind::kFixed;
  o.stem.shards = 4;
  o.fanout_threads = std::max(std::thread::hardware_concurrency(), 2U) - 1;
  const auto src = sc->make_source();
  s.arrivals = drain_until(*src, o.warmup + o.duration);
  return s;
}

// multi_query: eight overlapping templates sharing two states.
Setup multiquery_q8(std::uint64_t seed, double scale) {
  workload::AdversarialOptions a;
  a.rate_per_sec = 80.0;
  a.seed = seed;
  a.num_queries = 8;
  const auto sc = workload::AdversarialScenario::make("multi_query", a);
  Setup s;
  s.queries = sc->queries();
  auto& o = s.options;
  o = sc->executor_options();
  o.warmup = seconds_to_micros(60.0 * scale);
  o.duration = seconds_to_micros(240.0 * scale);
  o.sample_every = o.duration / 4;
  guarded_amri(o, sc->query().layout(0).jas.size());
  const auto src = sc->make_source();
  s.arrivals = drain_until(*src, o.warmup + o.duration);
  return s;
}

Setup make_setup(const std::string& name, std::uint64_t seed, double scale) {
  if (name == "fig7_drift") return fig7_drift(seed, scale);
  if (name == "churn_wall") return churn_wall(seed, scale);
  if (name == "hotset_sharded") return hotset_sharded(seed, scale);
  if (name == "multiquery_q8") return multiquery_q8(seed, scale);
  throw std::invalid_argument("unknown workload: " + name);
}

// --- inputs ------------------------------------------------------------------

/// FNV-1a over every field of every arrival: a change to a workload
/// generator changes the digest, which e2e_bench.py pins.
class Digest {
 public:
  void add(const Tuple& t) {
    mix(t.stream);
    mix(static_cast<std::uint64_t>(t.ts));
    mix(t.seq);
    mix(t.values.size());
    for (const Value v : t.values) mix(static_cast<std::uint64_t>(v));
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// The source the benchmark serves: replays the prepared arrivals (or
/// generates churn on the fly), marks the wall time at which the first
/// arrival at or past the warm-up boundary is asked for (the end of
/// set-up), counts what it served before the measured end, and in profile
/// runs times every next() call.
class ServedSource final : public engine::TupleSource {
 public:
  ServedSource(const Setup& s, bool timed)
      : setup_(s),
        warmup_(s.options.warmup),
        measure_end_(s.options.warmup + s.options.duration),
        timed_(timed) {}

  std::optional<Tuple> next() override {
    const Clock::time_point t0 = timed_ ? Clock::now() : Clock::time_point{};
    std::optional<Tuple> t;
    if (setup_.churn_count > 0) {
      if (pos_ < setup_.churn_count) t = churn_tuple(setup_.churn_seed, pos_);
    } else if (pos_ < setup_.arrivals.size()) {
      t = setup_.arrivals[pos_];
    }
    if (t.has_value()) {
      ++pos_;
      if (t->ts < measure_end_) ++served_due_;
      if (!boundary_.has_value() && t->ts >= warmup_) boundary_ = Clock::now();
    }
    if (timed_) next_ns_ += std::chrono::nanoseconds(Clock::now() - t0).count();
    return t;
  }

  std::optional<Clock::time_point> boundary() const { return boundary_; }
  std::uint64_t served() const { return pos_; }
  std::uint64_t served_due() const { return served_due_; }
  double next_ns() const { return static_cast<double>(next_ns_); }

 private:
  const Setup& setup_;
  TimeMicros warmup_;
  TimeMicros measure_end_;
  bool timed_;
  std::uint64_t pos_ = 0;
  std::uint64_t served_due_ = 0;
  std::int64_t next_ns_ = 0;
  std::optional<Clock::time_point> boundary_;
};

/// Inputs summary: digest plus the arrivals due before the measured end
/// and those due inside the measured window.
struct InputStats {
  std::string digest;
  std::uint64_t total = 0;
  std::uint64_t due = 0;       ///< ts < warmup + duration
};

InputStats input_stats(const Setup& s) {
  Digest d;
  InputStats st;
  const TimeMicros end = s.options.warmup + s.options.duration;
  auto add = [&](const Tuple& t) {
    d.add(t);
    ++st.total;
    if (t.ts < end) ++st.due;
  };
  if (s.churn_count > 0) {
    for (std::uint64_t i = 0; i < s.churn_count; ++i) {
      add(churn_tuple(s.churn_seed, i));
    }
  } else {
    for (const Tuple& t : s.arrivals) add(t);
  }
  st.digest = d.hex();
  return st;
}

// --- virtual result latency --------------------------------------------------

/// Quantiles of virtual result latencies: dense whole-µs counts below
/// kDense, the rare longer latencies kept verbatim.
class LatencyRecorder {
 public:
  void add(TimeMicros us) {
    ++n_;
    if (us < 0) us = 0;
    if (us < kDense) {
      ++dense_[static_cast<std::size_t>(us)];
    } else {
      sparse_.push_back(us);
    }
  }
  std::uint64_t count() const { return n_; }
  /// q-quantile in µs. The virtual clock advances in whole µs and drops
  /// the fraction, so a latency recorded as v lies in [v, v + 1): inside
  /// the dense range the quantile interpolates linearly in that bin.
  /// Past it (over a second) the nearest rank is exact enough.
  double quantile(double q) {
    if (n_ == 0) return 0.0;
    const double pos = q * static_cast<double>(n_);
    std::uint64_t seen = 0;
    for (std::size_t v = 0; v < dense_.size(); ++v) {
      const auto c = static_cast<double>(dense_[v]);
      if (c > 0 && static_cast<double>(seen) + c >= pos) {
        return static_cast<double>(v) + (pos - static_cast<double>(seen)) / c;
      }
      seen += dense_[v];
    }
    const auto rank = static_cast<std::uint64_t>(std::ceil(pos));
    const std::size_t k =
        std::min<std::size_t>(rank > seen ? rank - seen - 1 : 0,
                              sparse_.size() - 1);
    std::nth_element(sparse_.begin(),
                     sparse_.begin() + static_cast<std::ptrdiff_t>(k),
                     sparse_.end());
    return static_cast<double>(sparse_[k]);
  }

 private:
  static constexpr TimeMicros kDense = TimeMicros{1} << 20;
  std::vector<std::uint64_t> dense_ =
      std::vector<std::uint64_t>(static_cast<std::size_t>(kDense), 0);
  std::vector<TimeMicros> sparse_;
  std::uint64_t n_ = 0;
};

// --- registry helpers --------------------------------------------------------

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::uint64_t counter_sum(const telemetry::MetricsRegistry& reg,
                          const std::string& suffix) {
  std::uint64_t total = 0;
  for (const auto& [name, c] : reg.counters()) {
    if (ends_with(name, suffix)) total += c.value();
  }
  return total;
}

/// Observation-weighted mean over every histogram named *<suffix>.
double histogram_mean(const telemetry::MetricsRegistry& reg,
                      const std::string& suffix) {
  double sum = 0.0;
  std::uint64_t n = 0;
  for (const auto& [name, h] : reg.histograms()) {
    if (!ends_with(name, suffix)) continue;
    sum += h.sum();
    n += h.count();
  }
  return ratio(sum, static_cast<double>(n));
}

double histogram_p99(const telemetry::MetricsRegistry& reg,
                     const std::string& name) {
  const auto* h = reg.find_histogram(name);
  return h != nullptr ? h->percentile(0.99) : 0.0;
}

// --- one run -----------------------------------------------------------------

engine::RunResult run_once(engine::Executor& ex, engine::TupleSource& s) {
  return ex.run(s);
}
engine::RunResult run_once(engine::MultiQueryExecutor& ex,
                           engine::TupleSource& s) {
  return ex.run(s).combined;
}

struct EddyTotals {
  std::uint64_t results = 0;
  std::uint64_t truncated = 0;
};
EddyTotals eddy_totals(const engine::Executor& ex) {
  return {ex.eddy().results_produced(), ex.eddy().partials_truncated()};
}
EddyTotals eddy_totals(const engine::MultiQueryExecutor& ex) {
  EddyTotals t;
  for (std::size_t i = 0; i < ex.num_queries(); ++i) {
    t.results += ex.eddy(i).results_produced();
    t.truncated += ex.eddy(i).partials_truncated();
  }
  return t;
}

struct Args {
  std::string workload;
  std::string kind = "plain";
  std::uint64_t seed = 1;
  double scale = 1.0;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--kind") {
      a.kind = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--scale") {
      a.scale = std::stod(value);
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  const std::vector<std::string> kinds = {"plain", "latency", "profile",
                                          "span", "digest"};
  if (std::find(kinds.begin(), kinds.end(), a.kind) == kinds.end()) {
    throw std::invalid_argument("unknown run kind: " + a.kind);
  }
  if (!(a.scale > 0.0 && a.scale <= 1.0)) {
    throw std::invalid_argument("--scale must lie in (0, 1]");
  }
  return a;
}

void write_build(telemetry::JsonWriter& w) {
  w.begin_object("build");
#ifdef NDEBUG
  w.field("ndebug", true);
#else
  w.field("ndebug", false);
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  w.field("sanitized", true);
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  w.field("sanitized", true);
#else
  w.field("sanitized", false);
#endif
#else
  w.field("sanitized", false);
#endif
#if defined(__clang__)
  w.field("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  w.field("compiler", std::string("gcc ") + __VERSION__);
#else
  w.field("compiler", "unknown");
#endif
  w.field("build_type", AMRI_E2E_BUILD_TYPE);
  w.end_object();
}

template <class Ex>
std::string run_kind(const Args& args, Setup& setup, const InputStats& in) {
  const bool latency = args.kind == "latency";
  const bool profile = args.kind == "profile";
  const bool span = args.kind == "span";
  std::optional<telemetry::Telemetry> tel;
  if (profile || span) {
    telemetry::TelemetryOptions topts;
    topts.enable_profiler = profile;
    tel.emplace(topts);
    setup.options.telemetry = &*tel;
    if (span) setup.options.trace_sample = 16;
  }
  LatencyRecorder lat;
  const VirtualClock* clock = nullptr;
  const TimeMicros warmup = setup.options.warmup;
  if (latency) {
    setup.options.on_result = [&](const engine::JoinResult& r) {
      const TimeMicros now = clock->now();
      if (now < warmup) return;
      TimeMicros newest = 0;
      for (const Tuple* m : r.members) newest = std::max(newest, m->ts);
      lat.add(now - newest);
    };
  }

  ServedSource source(setup, profile);
  std::optional<Ex> ex;
  const Clock::time_point t0 = Clock::now();
  if constexpr (std::is_same_v<Ex, engine::Executor>) {
    ex.emplace(setup.queries.front(), setup.options);
  } else {
    ex.emplace(setup.queries, setup.options);
  }
  const Clock::time_point t1 = Clock::now();
  clock = &ex->clock();
  const engine::RunResult r = run_once(*ex, source);
  const Clock::time_point t2 = Clock::now();
  const Clock::time_point boundary = source.boundary().value_or(t2);

  std::uint64_t migrations = 0, suppressed = 0, probes = 0;
  std::size_t state_bytes = 0;
  double pause_us = 0.0, imbalance = 1.0;
  for (const auto& st : r.states) {
    migrations += st.migrations;
    suppressed += st.suppressed;
    probes += st.probes;
    state_bytes += st.state_bytes;
    pause_us += st.migration_pause_us;
    imbalance = std::max(imbalance, st.shard_imbalance);
  }
  // Offered = handled in the measured phase + left queued at the end +
  // due before the end but never pulled (an OOM death stops the pulls).
  const std::uint64_t handled = r.arrivals + r.arrivals_filtered;
  const std::uint64_t offered =
      handled + r.arrivals_dropped + (in.due - source.served_due());
  const double measured_s = seconds_between(boundary, t2);

  telemetry::JsonWriter w;
  w.begin_object();
  w.field("workload", args.workload);
  w.field("kind", args.kind);
  w.field("seed", args.seed);
  w.field("scale", args.scale);
  write_build(w);
  w.field("fanout_threads",
          static_cast<std::uint64_t>(setup.options.fanout_threads));
  w.field("digest", in.digest);
  w.field("inputs", in.total);
  w.field("run_s", seconds_between(t1, t2));

  w.begin_object("check");
  w.field("outputs", r.outputs);
  w.field("arrivals", r.arrivals);
  w.field("charged_us", r.charged_us);
  w.field("migrations", migrations);
  w.end_object();

  const auto served = static_cast<double>(source.served());
  const CostMeter& meter = ex->meter();
  const EddyTotals eddy = eddy_totals(*ex);
  w.begin_object("e2e");
  if (args.kind == "plain") {
    w.field("arrivals_per_s",
            ratio(static_cast<double>(r.arrivals), measured_s));
    w.field("setup_s", seconds_between(t0, boundary));
  }
  w.field("outputs", static_cast<double>(r.outputs));
  w.field("peak_memory_mb", static_cast<double>(r.peak_memory) / (1 << 20));
  w.field("completed_share", ratio(static_cast<double>(handled),
                                   static_cast<double>(offered)));
  if (latency) {
    w.field("result_latency_p50_ms", lat.quantile(0.50) / 1000.0);
    w.field("result_latency_p99_ms", lat.quantile(0.99) / 1000.0);
    w.field("latency_results", lat.count());
  }
  w.end_object();

  w.begin_object("layer");
  if (args.kind == "plain") {
    const double routes = static_cast<double>(meter.routes());
    w.field("eddy.routes_per_arrival", ratio(routes, served));
    const auto compares = static_cast<double>(meter.compares());
    w.field("eddy.truncated_share",
            ratio(static_cast<double>(eddy.truncated), routes));
    w.field("stem.probes_per_arrival",
            ratio(static_cast<double>(probes), served));
    w.field("stem.state_mb", static_cast<double>(state_bytes) / (1 << 20));
    w.field("index.hashes_per_arrival",
            ratio(static_cast<double>(meter.hashes()), served));
    w.field("index.compares_per_arrival", ratio(compares, served));
    w.field("index.bucket_visits_per_arrival",
            ratio(static_cast<double>(meter.bucket_visits()), served));
    w.field("index.compares_per_output",
            ratio(compares, static_cast<double>(eddy.results)));
    w.field("index.shard_imbalance_max", imbalance);
    w.field("migrator.migrations", static_cast<double>(migrations));
    w.field("migrator.pause_ms", pause_us / 1000.0);
    w.field("tuner.suppressed", static_cast<double>(suppressed));
    w.field("meter.charged_us_per_arrival", ratio(r.charged_us, served));
  }
  if (profile) {
    using telemetry::Phase;
    const telemetry::Profiler& p = *tel->profiler();
    const auto& reg = tel->metrics();
    auto ms = [&](Phase ph) { return p.stats(ph).exclusive_us / 1000.0; };
    auto p99 = [&](Phase ph) { return p.scope_histogram(ph).percentile(0.99); };
    const auto* wall = reg.find_gauge("profile.run.wall_us");
    const double wall_us = wall != nullptr ? wall->value() : 0.0;
    w.field("workload.gen_ns_per_arrival", ratio(source.next_ns(), served));
    w.field("run_loop.drain_ms", ms(Phase::kDrain));
    w.field("run_loop.drain_offthread_ms",
            p.offthread_us(Phase::kDrain) / 1000.0);
    w.field("run_loop.expiry_ms", ms(Phase::kExpiry));
    w.field("run_loop.overlap_wait_ms", ms(Phase::kOverlapWait));
    w.field("run_loop.sample_ms", ms(Phase::kSample));
    w.field("run_loop.drains",
            static_cast<double>(p.stats(Phase::kDrain).entries));
    w.field("eddy.route_ms", ms(Phase::kRoute));
    w.field("eddy.route_p99_us", p99(Phase::kRoute));
    w.field("stem.insert_ms", ms(Phase::kInsert));
    w.field("stem.probe_ms", ms(Phase::kProbe));
    w.field("stem.probe_p99_us", p99(Phase::kProbe));
    w.field("stem.probe_batch_mean", histogram_mean(reg, ".probe.batch_size"));
    w.field("index.wildcard_buckets_mean",
            histogram_mean(reg, ".probe.wildcard_buckets"));
    const std::uint64_t enumerated = counter_sum(reg, ".probe.enumerated");
    const std::uint64_t filtered = counter_sum(reg, ".probe.filtered");
    w.field("index.tag_filtered_share",
            ratio(static_cast<double>(filtered),
                  static_cast<double>(enumerated + filtered)));
    w.field("index.fanout_shards_mean",
            histogram_mean(reg, ".probe.fanout_shards"));
    w.field("pool.queue_wait_p99_us", histogram_p99(reg, "pool.queue_wait_us"));
    w.field("pool.contention",
            static_cast<double>(counter_sum(reg, "pool.contention")));
    w.field("migrator.migration_ms", ms(Phase::kMigration));
    w.field("migrator.tuples_moved",
            static_cast<double>(counter_sum(reg, ".migration.tuples_moved")));
    w.field("assessment.snapshot_merge_ms", ms(Phase::kSnapshotMerge));
    w.field("assessment.observations",
            static_cast<double>(counter_sum(reg, ".observations")));
    w.field("tuner.epoch_ms", ms(Phase::kTunerEpoch));
    w.field("tuner.epoch_p99_us", p99(Phase::kTunerEpoch));
    w.field("tuner.decisions",
            static_cast<double>(counter_sum(reg, ".tuner.decisions")));
    w.field("trace.profile_coverage", ratio(p.total_exclusive_us(), wall_us));
  }
  if (span) {
    const auto& reg = tel->metrics();
    const auto* h = reg.find_histogram("span.latency_us");
    w.field("trace.span_latency_p50_us",
            h != nullptr ? h->percentile(0.50) : 0.0);
    w.field("trace.span_latency_p99_us",
            h != nullptr ? h->percentile(0.99) : 0.0);
    w.field("trace.events_dropped",
            static_cast<double>(counter_sum(reg, "telemetry.events.dropped")));
  }
  w.end_object();
  w.end_object();
  return std::move(w).take();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    Setup setup = make_setup(args.workload, args.seed, args.scale);
    const InputStats in = input_stats(setup);
    if (args.kind == "digest") {
      telemetry::JsonWriter w;
      w.begin_object();
      w.field("workload", args.workload);
      w.field("kind", args.kind);
      w.field("seed", args.seed);
      w.field("scale", args.scale);
      w.field("digest", in.digest);
      w.field("inputs", in.total);
      w.end_object();
      std::cout << w.str() << "\n";
      return 0;
    }
    const std::string out =
        setup.queries.size() > 1
            ? run_kind<engine::MultiQueryExecutor>(args, setup, in)
            : run_kind<engine::Executor>(args, setup, in);
    std::cout << out << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "e2e_pipeline: " << e.what() << "\n";
    return 2;
  }
}
