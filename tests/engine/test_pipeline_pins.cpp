// Pinned end-to-end fingerprints of the run loop. Each case runs one
// executor configuration — single-query with warm-up at batch 1 and 64,
// multi-query with warm-up at batch 1 and 64, sharded, wall mode with a
// WHERE filter, and a run that dies of memory exhaustion — and compares
// everything observable at the RunResult surface against constants
// recorded from the engine before its three schedules (tuple-at-a-time,
// batched, wall with a drain/route overlap worker) were folded into one
// batched loop; the wall case was recorded with the overlap worker off,
// the schedule that survived. Pinned:
//
//   * counters: outputs, arrivals, filtered, dropped, routing decisions,
//     peak memory, completed / died_at, on_result invocations;
//   * charged_us, bit for bit;
//   * every Sample (t, outputs, memory_bytes, backlog, per-query outputs),
//     as a count plus an FNV-1a digest;
//   * per state: migrations and final index;
//   * collected rows: count plus an FNV-1a digest of their values.
//
// A deliberate behaviour change must update the constants consciously; on
// a mismatch the failure message prints the actual fingerprint in the
// initializer form used below.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "engine/executor.hpp"
#include "engine/multi_query.hpp"
#include "workload/adversarial.hpp"
#include "workload/scenario.hpp"

namespace amri::engine {
namespace {

constexpr std::int64_t kNoDeath = std::numeric_limits<std::int64_t>::min();

struct Fingerprint {
  std::uint64_t outputs = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t filtered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t decisions = 0;
  std::uint64_t peak_memory = 0;
  bool completed = false;
  std::int64_t died_at = kNoDeath;
  std::uint64_t charged_bits = 0;  ///< charged_us reinterpreted
  std::uint64_t samples = 0;
  std::uint64_t sample_digest = 0;
  std::string states;  ///< "migrations:final_index" per state, '|'-joined
  std::uint64_t rows = 0;
  std::uint64_t row_digest = 0;
  std::uint64_t callbacks = 0;  ///< on_result calls, warm-up included
};

class Fnv {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

Fingerprint fingerprint(const RunResult& r, std::uint64_t callbacks) {
  Fingerprint f;
  f.outputs = r.outputs;
  f.arrivals = r.arrivals;
  f.filtered = r.arrivals_filtered;
  f.dropped = r.arrivals_dropped;
  f.decisions = r.routing_decisions;
  f.peak_memory = r.peak_memory;
  f.completed = r.completed;
  f.died_at = r.died_at.has_value() ? *r.died_at : kNoDeath;
  f.charged_bits = std::bit_cast<std::uint64_t>(r.charged_us);
  f.samples = r.samples.size();
  Fnv samples;
  for (const Sample& s : r.samples) {
    samples.mix(static_cast<std::uint64_t>(s.t));
    samples.mix(s.outputs);
    samples.mix(s.memory_bytes);
    samples.mix(s.backlog);
    samples.mix(s.per_query_outputs.size());
    for (const std::uint64_t q : s.per_query_outputs) samples.mix(q);
  }
  f.sample_digest = samples.value();
  for (const StateSummary& s : r.states) {
    if (!f.states.empty()) f.states += "|";
    f.states += std::to_string(s.migrations) + ":" + s.final_index;
  }
  f.rows = r.rows.size();
  Fnv rows;
  for (const auto& row : r.rows) {
    rows.mix(row.size());
    for (const Value v : row) rows.mix(static_cast<std::uint64_t>(v));
  }
  f.row_digest = rows.value();
  f.callbacks = callbacks;
  return f;
}

std::string describe(const Fingerprint& f) {
  std::ostringstream os;
  os << "{.outputs = " << f.outputs << ", .arrivals = " << f.arrivals
     << ", .filtered = " << f.filtered << ", .dropped = " << f.dropped
     << ", .decisions = " << f.decisions
     << ", .peak_memory = " << f.peak_memory
     << ", .completed = " << (f.completed ? "true" : "false")
     << ", .died_at = "
     << (f.died_at == kNoDeath ? std::string("kNoDeath")
                               : std::to_string(f.died_at))
     << std::hex << ", .charged_bits = 0x" << f.charged_bits << "ULL"
     << std::dec << ", .samples = " << f.samples << std::hex
     << ", .sample_digest = 0x" << f.sample_digest << "ULL" << std::dec
     << ", .states = \"" << f.states << "\", .rows = " << f.rows << std::hex
     << ", .row_digest = 0x" << f.row_digest << "ULL" << std::dec
     << ", .callbacks = " << f.callbacks << "}";
  return os.str();
}

void expect_pinned(const Fingerprint& got, const Fingerprint& want) {
  EXPECT_EQ(got.outputs, want.outputs);
  EXPECT_EQ(got.arrivals, want.arrivals);
  EXPECT_EQ(got.filtered, want.filtered);
  EXPECT_EQ(got.dropped, want.dropped);
  EXPECT_EQ(got.decisions, want.decisions);
  EXPECT_EQ(got.peak_memory, want.peak_memory);
  EXPECT_EQ(got.completed, want.completed);
  EXPECT_EQ(got.died_at, want.died_at);
  EXPECT_EQ(got.charged_bits, want.charged_bits);
  EXPECT_EQ(got.samples, want.samples);
  EXPECT_EQ(got.sample_digest, want.sample_digest);
  EXPECT_EQ(got.states, want.states);
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.row_digest, want.row_digest);
  EXPECT_EQ(got.callbacks, want.callbacks);
  if (::testing::Test::HasFailure()) {
    ADD_FAILURE() << "actual: " << describe(got);
  }
}

index::IndexConfig even_config(std::size_t n, int bits) {
  std::vector<std::uint8_t> alloc(n, 0);
  for (int b = 0; b < bits; ++b) ++alloc[static_cast<std::size_t>(b) % n];
  return index::IndexConfig(alloc);
}

tuner::TunerOptions adaptive_tuner(int bits, std::uint64_t reassess_every) {
  tuner::TunerOptions t;
  t.optimizer.bit_budget = bits;
  t.reassess_every = reassess_every;
  return t;
}

/// Modelled costs `scale` times the defaults, chosen per case so that
/// processing falls behind the arrival schedule now and then and
/// backlogged batches actually form.
void backlogged(ExecutorOptions& o, double scale) {
  o.costs.hash_cost_us *= scale;
  o.costs.compare_cost_us *= scale;
  o.costs.route_cost_us *= scale;
  o.costs.insert_cost_us *= scale;
  o.costs.delete_cost_us *= scale;
  o.costs.bucket_visit_cost_us *= scale;
}

template <typename Ex>
Fingerprint run_counted(Ex& ex, TupleSource& source,
                        const std::uint64_t& callbacks) {
  RunResult r;
  if constexpr (std::is_same_v<Ex, MultiQueryExecutor>) {
    r = ex.run(source).combined;
  } else {
    r = ex.run(source);
  }
  return fingerprint(r, callbacks);
}

/// The paper's 4-way drifting join with warm-up, cost-based routing (with
/// exploration, so the policy RNG is on the path), an adaptive AMRI tuner,
/// a WHERE filter on stream 2 and row collection capped below the
/// measured outputs.
Fingerprint run_fig7(std::size_t batch) {
  workload::ScenarioOptions so;
  so.rate_per_sec = 25.0;
  so.window_seconds = 4.0;
  so.phase_seconds = 10.0;
  so.hot_domain = 5;
  so.cold_domain = 12;
  so.seed = 71;
  const workload::Scenario sc(so);
  QuerySpec q = sc.query();
  q.set_selection(2, Selection({FilterPredicate{1, CompareOp::kNe, 4}}));
  ExecutorOptions o = sc.default_executor_options();
  backlogged(o, 700.0);
  o.warmup = seconds_to_micros(10.0);
  o.duration = seconds_to_micros(30.0);
  o.sample_every = seconds_to_micros(7.0);
  o.batch_size = batch;
  o.collect_rows = true;
  o.max_collected_rows = 400;
  o.eddy.routing.kind = RoutingPolicyKind::kCostBased;
  o.eddy.routing.exploration_rate = 0.1;
  o.stem.backend = IndexBackend::kAmri;
  o.stem.initial_config = even_config(sc.query().layout(0).jas.size(), 6);
  o.stem.amri_tuner = adaptive_tuner(6, 300);
  std::uint64_t callbacks = 0;
  o.on_result = [&callbacks](const JoinResult&) { ++callbacks; };
  Executor ex(q, o);
  const auto src = sc.make_source();
  return run_counted(ex, *src, callbacks);
}

/// Three overlapping queries sharing two states, with warm-up and WHERE
/// selections that both filter arrivals and make accept masks differ.
Fingerprint run_multi_query(std::size_t batch) {
  workload::AdversarialOptions a;
  a.rate_per_sec = 40.0;
  a.seed = 23;
  a.num_queries = 3;
  const auto sc = workload::AdversarialScenario::make("multi_query", a);
  std::vector<QuerySpec> queries = sc->queries();
  // Every query drops stream-1 arrivals whose first value is 2 (filtered
  // before the shared state); query 1 alone also drops stream-0 arrivals
  // whose first value is 3.
  for (QuerySpec& q : queries) {
    q.set_selection(1, Selection({FilterPredicate{0, CompareOp::kNe, 2}}));
  }
  queries[1].set_selection(
      0, Selection({FilterPredicate{0, CompareOp::kNe, 3}}));
  ExecutorOptions o = sc->executor_options();
  o.warmup = seconds_to_micros(5.0);
  o.duration = seconds_to_micros(25.0);
  o.sample_every = seconds_to_micros(6.0);
  backlogged(o, 2500.0);
  o.batch_size = batch;
  o.collect_rows = true;
  o.max_collected_rows = 300;
  o.stem.backend = IndexBackend::kAmri;
  o.stem.initial_config = even_config(sc->query().layout(0).jas.size(), 8);
  o.stem.amri_tuner = adaptive_tuner(8, 400);
  std::uint64_t callbacks = 0;
  o.on_result = [&callbacks](const JoinResult&) { ++callbacks; };
  MultiQueryExecutor ex(queries, o);
  const auto src = sc->make_source();
  return run_counted(ex, *src, callbacks);
}

/// rotating_hot_set over four shards with the guardrailed tuner.
Fingerprint run_sharded() {
  workload::AdversarialOptions a;
  a.rate_per_sec = 40.0;
  a.seed = 31;
  const auto sc = workload::AdversarialScenario::make("rotating_hot_set", a);
  ExecutorOptions o = sc->executor_options();
  o.warmup = seconds_to_micros(3.0);
  o.duration = seconds_to_micros(10.0);
  o.sample_every = seconds_to_micros(5.0);
  backlogged(o, 400.0);
  o.batch_size = 64;
  o.stem.shards = 4;
  o.stem.backend = IndexBackend::kAmri;
  o.stem.initial_config = even_config(sc->query().layout(0).jas.size(), 8);
  tuner::TunerOptions t = adaptive_tuner(8, 300);
  t.guardrails = tuner::GuardrailOptions{};
  t.guardrails->enabled = true;
  o.stem.amri_tuner = t;
  Executor ex(sc->query(), o);
  const auto src = sc->make_source();
  return run_counted(ex, *src, 0);
}

class BurstSource final : public TupleSource {
 public:
  explicit BurstSource(std::vector<Tuple> tuples)
      : tuples_(tuples.begin(), tuples.end()) {}
  std::optional<Tuple> next() override {
    if (tuples_.empty()) return std::nullopt;
    Tuple t = tuples_.front();
    tuples_.pop_front();
    return t;
  }

 private:
  std::deque<Tuple> tuples_;
};

/// Two streams in 300-arrival bursts 0.5 s apart, so wall batches of 256
/// mix streams and the backlog outlives each drain.
std::vector<Tuple> bursty_arrivals(std::size_t count, std::uint64_t seed) {
  std::vector<Tuple> tuples;
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    Tuple t;
    t.stream = static_cast<StreamId>(rng.below(2));
    t.ts = seconds_to_micros(0.5 * static_cast<double>(i / 300));
    t.seq = static_cast<TupleSeq>(i);
    t.values.push_back(static_cast<Value>(rng.below(12)));
    tuples.push_back(t);
  }
  return tuples;
}

/// Wall mode, batch 256, with warm-up and a WHERE filter on stream 0.
Fingerprint run_wall() {
  QuerySpec q = make_complete_join_query(2, seconds_to_micros(3.0));
  q.set_selection(0, Selection({FilterPredicate{0, CompareOp::kNe, 4}}));
  ExecutorOptions o;
  o.warmup = seconds_to_micros(2.0);
  o.duration = seconds_to_micros(10.0);
  o.sample_every = seconds_to_micros(3.0);
  o.engine = EngineMode::kWall;
  o.batch_size = 256;
  o.collect_rows = true;
  o.max_collected_rows = 500;
  o.eddy.routing.kind = RoutingPolicyKind::kFixed;
  o.stem.backend = IndexBackend::kAmri;
  o.stem.initial_config = even_config(1, 4);
  o.stem.amri_tuner = adaptive_tuner(4, 500);
  std::uint64_t callbacks = 0;
  o.on_result = [&callbacks](const JoinResult&) { ++callbacks; };
  Executor ex(q, o);
  BurstSource src(bursty_arrivals(7200, 97));
  return run_counted(ex, src, callbacks);
}

/// oom_cliff with warm-up: calm traffic fits the budget, the first burst
/// of the measured phase does not.
Fingerprint run_oom() {
  workload::AdversarialOptions a;
  a.rate_per_sec = 30.0;
  a.seed = 5;
  a.oom_budget_bytes = 500000;
  const auto sc = workload::AdversarialScenario::make("oom_cliff", a);
  ExecutorOptions o = sc->executor_options();
  o.warmup = seconds_to_micros(3.0);
  o.duration = seconds_to_micros(60.0);
  o.sample_every = seconds_to_micros(4.0);
  o.stem.backend = IndexBackend::kAmri;
  o.stem.initial_config = even_config(sc->query().layout(0).jas.size(), 6);
  o.stem.amri_tuner = adaptive_tuner(6, 300);
  Executor ex(sc->query(), o);
  const auto src = sc->make_source();
  return run_counted(ex, *src, 0);
}

TEST(PipelinePins, SingleQueryWarmupBatch1) {
  expect_pinned(run_fig7(1),
      {.outputs = 1353,
       .arrivals = 2925,
       .filtered = 86,
       .dropped = 42,
       .decisions = 58985,
       .peak_memory = 67696,
       .completed = true,
       .died_at = kNoDeath,
       .charged_bits = 0x4182196e18000000ULL,
       .samples = 6,
       .sample_digest = 0x3ead03e768f7af53ULL,
       .states =
           "5:bit_address[A:0 B:0 C:6]|2:bit_address[A:6 B:0 C:0]|"
           "4:bit_address[A:0 B:6 C:0]|6:bit_address[A:0 B:0 C:6]",
       .rows = 400,
       .row_digest = 0xc19b9c4f8abf7e45ULL,
       .callbacks = 1677});
}

TEST(PipelinePins, SingleQueryWarmupBatch64) {
  expect_pinned(run_fig7(64),
      {.outputs = 1392,
       .arrivals = 2935,
       .filtered = 86,
       .dropped = 16,
       .decisions = 59564,
       .peak_memory = 78752,
       .completed = true,
       .died_at = kNoDeath,
       .charged_bits = 0x4182546a30000000ULL,
       .samples = 6,
       .sample_digest = 0xdea5e4a1b8d0c0ceULL,
       .states =
           "7:bit_address[A:0 B:0 C:6]|2:bit_address[A:6 B:0 C:0]|"
           "7:bit_address[A:0 B:6 C:0]|6:bit_address[A:0 B:0 C:6]",
       .rows = 400,
       .row_digest = 0x40da0b6509cbb545ULL,
       .callbacks = 1716});
}

TEST(PipelinePins, MultiQueryWarmupBatch1) {
  expect_pinned(run_multi_query(1),
      {.outputs = 815,
       .arrivals = 1519,
       .filtered = 20,
       .dropped = 464,
       .decisions = 5696,
       .peak_memory = 254296,
       .completed = true,
       .died_at = kNoDeath,
       .charged_bits = 0x417ae6f1d0000000ULL,
       .samples = 6,
       .sample_digest = 0xf71783b39ce1d476ULL,
       .states =
           "1:bit_address[A:0 B:4 C:4 D:0]|"
           "1:bit_address[A:0 B:4 C:4 D:0]",
       .rows = 300,
       .row_digest = 0x5f36fdd8320f619cULL,
       .callbacks = 881});
}

TEST(PipelinePins, MultiQueryWarmupBatch64) {
  expect_pinned(run_multi_query(64),
      {.outputs = 831,
       .arrivals = 1527,
       .filtered = 20,
       .dropped = 387,
       .decisions = 5720,
       .peak_memory = 264928,
       .completed = true,
       .died_at = kNoDeath,
       .charged_bits = 0x417b2b6860000000ULL,
       .samples = 6,
       .sample_digest = 0x75a9d79579c641f4ULL,
       .states =
           "1:bit_address[A:0 B:4 C:4 D:0]|"
           "1:bit_address[A:0 B:4 C:4 D:0]",
       .rows = 300,
       .row_digest = 0xc45e03e367fe3bcULL,
       .callbacks = 897});
}

TEST(PipelinePins, ShardedBatch64) {
  expect_pinned(run_sharded(),
      {.outputs = 127,
       .arrivals = 1387,
       .filtered = 0,
       .dropped = 197,
       .decisions = 23881,
       .peak_memory = 377512,
       .completed = true,
       .died_at = kNoDeath,
       .charged_bits = 0x4161cfe880000000ULL,
       .samples = 4,
       .sample_digest = 0xb08a7174799b0309ULL,
       .states =
           "1:bit_address[A:0 B:4 C:4]x4|1:bit_address[A:5 B:0 C:3]x4|"
           "1:bit_address[A:4 B:0 C:4]x4|1:bit_address[A:4 B:4 C:0]x4",
       .rows = 0,
       .row_digest = 0xcbf29ce484222325ULL,
       .callbacks = 0});
}

TEST(PipelinePins, WallBatch256WithSelection) {
  expect_pinned(run_wall(),
      {.outputs = 373416,
       .arrivals = 5732,
       .filtered = 268,
       .dropped = 0,
       .decisions = 6880,
       .peak_memory = 292696,
       .completed = true,
       .died_at = kNoDeath,
       .charged_bits = 0x40e97768f5c42642ULL,
       .samples = 5,
       .sample_digest = 0x8d82dcbcbe4572c8ULL,
       .states =
           "0:bit_address[A:4]|0:bit_address[A:4]",
       .rows = 500,
       .row_digest = 0xd122004e48df9c5ULL,
       .callbacks = 400928});
}

TEST(PipelinePins, OomMidRun) {
  const Fingerprint got = run_oom();
  ASSERT_NE(got.died_at, kNoDeath) << "the budget must trip";
  EXPECT_GT(got.died_at, 0) << "death must fall in the measured phase";
  expect_pinned(got,
      {.outputs = 1235,
       .arrivals = 3055,
       .filtered = 0,
       .dropped = 1,
       .decisions = 81141,
       .peak_memory = 500120,
       .completed = false,
       .died_at = 9821409,
       .charged_bits = 0x4104efd5fffdde5fULL,
       .samples = 4,
       .sample_digest = 0x3c6436acd3a08517ULL,
       .states =
           "3:bit_address[A:6 B:0 C:0]|2:bit_address[A:0 B:0 C:6]|"
           "4:bit_address[A:0 B:6 C:0]|2:bit_address[A:0 B:0 C:6]",
       .rows = 0,
       .row_digest = 0xcbf29ce484222325ULL,
       .callbacks = 0});
}

}  // namespace
}  // namespace amri::engine
