#include "engine/executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "../test_util.hpp"

namespace amri::engine {
namespace {

/// Scripted tuple source for deterministic tests.
class ScriptedSource final : public TupleSource {
 public:
  explicit ScriptedSource(std::vector<Tuple> tuples)
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

Tuple mk(StreamId s, double ts_sec, std::initializer_list<Value> vals) {
  return testutil::make_tuple(vals, 0, seconds_to_micros(ts_sec), s);
}

ExecutorOptions base_options() {
  ExecutorOptions o;
  o.duration = seconds_to_micros(100);
  o.sample_every = seconds_to_micros(10);
  o.stem.backend = IndexBackend::kScan;
  return o;
}

TEST(Executor, CountsJoinResults) {
  const QuerySpec q = make_complete_join_query(2, seconds_to_micros(50));
  ScriptedSource src({mk(0, 1, {7}), mk(1, 2, {7}), mk(1, 3, {8}),
                      mk(0, 4, {8})});
  Executor ex(q, base_options());
  const RunResult r = ex.run(src);
  EXPECT_EQ(r.outputs, 2u);  // (7,7) and (8,8)
  EXPECT_EQ(r.arrivals, 4u);
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(r.died_at.has_value());
}

TEST(Executor, WindowExpiryPreventsStaleJoins) {
  const QuerySpec q = make_complete_join_query(2, seconds_to_micros(5));
  // Second tuple arrives 30s later: the first has expired.
  ScriptedSource src({mk(0, 1, {7}), mk(1, 31, {7})});
  Executor ex(q, base_options());
  const RunResult r = ex.run(src);
  EXPECT_EQ(r.outputs, 0u);
}

TEST(Executor, ClockAdvancesThroughIdlePeriods) {
  const QuerySpec q = make_complete_join_query(2, seconds_to_micros(5));
  ScriptedSource src({mk(0, 1, {1}), mk(1, 90, {1})});
  ExecutorOptions o = base_options();
  Executor ex(q, o);
  ex.run(src);
  EXPECT_GE(ex.clock().now(), seconds_to_micros(90));
}

TEST(Executor, SamplesThroughputCurve) {
  const QuerySpec q = make_complete_join_query(2, seconds_to_micros(200));
  std::vector<Tuple> tuples;
  for (int i = 0; i < 90; ++i) {
    tuples.push_back(mk(i % 2 == 0 ? 0 : 1, i + 1.0, {i / 2}));
  }
  ScriptedSource src(std::move(tuples));
  Executor ex(q, base_options());
  const RunResult r = ex.run(src);
  ASSERT_GE(r.samples.size(), 5u);
  // Monotone time and outputs.
  for (std::size_t i = 1; i < r.samples.size(); ++i) {
    EXPECT_GE(r.samples[i].t, r.samples[i - 1].t);
    EXPECT_GE(r.samples[i].outputs, r.samples[i - 1].outputs);
  }
  EXPECT_EQ(r.samples.back().outputs, r.outputs);
  EXPECT_EQ(r.outputs_at(seconds_to_micros(100)), r.outputs);
}

TEST(Executor, MemoryBudgetKillsTheRun) {
  const QuerySpec q = make_complete_join_query(2, seconds_to_micros(1000));
  std::vector<Tuple> tuples;
  for (int i = 0; i < 5000; ++i) {
    tuples.push_back(mk(0, i * 0.01, {i}));
  }
  ScriptedSource src(std::move(tuples));
  ExecutorOptions o = base_options();
  o.duration = seconds_to_micros(60);
  o.memory_budget = 40 * 1024;  // tiny: the window store exceeds this
  Executor ex(q, o);
  const RunResult r = ex.run(src);
  ASSERT_TRUE(r.died_at.has_value());
  EXPECT_FALSE(r.completed);
  EXPECT_GT(r.peak_memory, o.memory_budget);
}

TEST(Executor, WarmupTrainsThenResetsMetrics) {
  const QuerySpec q = make_complete_join_query(2, seconds_to_micros(500));
  std::vector<Tuple> tuples;
  for (int i = 0; i < 400; ++i) {
    tuples.push_back(mk(i % 2 == 0 ? 0 : 1, 0.5 * i, {i % 5}));
  }
  ScriptedSource src(std::move(tuples));
  ExecutorOptions o = base_options();
  o.warmup = seconds_to_micros(50);
  o.duration = seconds_to_micros(100);
  o.stem.backend = IndexBackend::kStaticBitmap;
  o.stem.initial_config = index::IndexConfig({0});
  tuner::TunerOptions t;
  t.optimizer.bit_budget = 4;
  t.optimizer.max_bits_per_attr = 4;
  o.stem.amri_tuner = t;
  Executor ex(q, o);
  const RunResult r = ex.run(src);
  // The static backend received a trained (non-zero) config at warm-up.
  ASSERT_EQ(r.states.size(), 2u);
  EXPECT_NE(r.states[0].final_index.find("bit_address"), std::string::npos);
  for (const auto& s : ex.stems()) {
    ASSERT_NE(s->current_config(), nullptr);
    EXPECT_GT(s->current_config()->total_bits(), 0);
  }
  // Samples are relative to measurement start.
  ASSERT_FALSE(r.samples.empty());
  EXPECT_EQ(r.samples.front().t, 0);
}

TEST(Executor, BacklogAccumulatesWhenOverloaded) {
  const QuerySpec q = make_complete_join_query(2, seconds_to_micros(100));
  // A flood of same-timestamp arrivals with expensive scans: the clock
  // races ahead of the (already-past) arrival schedule.
  std::vector<Tuple> tuples;
  for (int i = 0; i < 3000; ++i) tuples.push_back(mk(0, 0.001 * i, {1}));
  ScriptedSource src(std::move(tuples));
  ExecutorOptions o = base_options();
  o.duration = seconds_to_micros(2);
  o.costs.insert_cost_us = 2000.0;  // brutally slow inserts
  Executor ex(q, o);
  const RunResult r = ex.run(src);
  EXPECT_GT(r.arrivals_dropped, 0u);
  EXPECT_LT(r.arrivals, 3000u);
}

TEST(Executor, DeterministicAcrossRuns) {
  const QuerySpec q = make_complete_join_query(3, seconds_to_micros(60));
  auto make_tuples = [] {
    std::vector<Tuple> tuples;
    Rng rng(5);
    for (int i = 0; i < 600; ++i) {
      Tuple t;
      t.stream = static_cast<StreamId>(rng.below(3));
      t.ts = seconds_to_micros(0.1 * i);
      t.seq = static_cast<TupleSeq>(i);
      t.values.push_back(static_cast<Value>(rng.below(6)));
      t.values.push_back(static_cast<Value>(rng.below(6)));
      tuples.push_back(t);
    }
    return tuples;
  };
  ExecutorOptions o = base_options();
  o.stem.backend = IndexBackend::kAmri;
  o.stem.initial_config = index::IndexConfig({2, 2});
  ScriptedSource src1(make_tuples());
  ScriptedSource src2(make_tuples());
  Executor ex1(q, o);
  Executor ex2(q, o);
  const RunResult r1 = ex1.run(src1);
  const RunResult r2 = ex2.run(src2);
  EXPECT_EQ(r1.outputs, r2.outputs);
  EXPECT_EQ(r1.arrivals, r2.arrivals);
  EXPECT_EQ(r1.charged_us, r2.charged_us);
}

TEST(Executor, StateSummariesPopulated) {
  const QuerySpec q = make_complete_join_query(2, seconds_to_micros(50));
  ScriptedSource src({mk(0, 1, {7}), mk(1, 2, {7})});
  Executor ex(q, base_options());
  const RunResult r = ex.run(src);
  ASSERT_EQ(r.states.size(), 2u);
  EXPECT_EQ(r.states[0].stream, 0u);
  EXPECT_EQ(r.states[1].stream, 1u);
  EXPECT_EQ(r.states[0].final_index, "scan");
  EXPECT_GT(r.states[0].probes + r.states[1].probes, 0u);
}

std::uint64_t payload_uint(const std::string& payload, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto at = payload.find(needle);
  if (at == std::string::npos) return 0;
  return std::stoull(payload.substr(at + needle.size()));
}

TEST(Executor, BackpressureFiresOncePerBurstAndRearms) {
  // Two bursts of 10,000 arrivals, each at a single timestamp, the second
  // long after the first has drained: the backlog crosses the 10,000
  // threshold once per burst, and the event re-arms in between.
  const QuerySpec q = make_complete_join_query(2, seconds_to_micros(1));
  std::vector<Tuple> tuples;
  for (const double ts : {1.0, 50.0}) {
    for (int i = 0; i < 10000; ++i) {
      tuples.push_back(mk(static_cast<StreamId>(i % 2), ts, {i / 2}));
    }
  }
  ScriptedSource src(std::move(tuples));
  telemetry::Telemetry telemetry;
  ExecutorOptions o = base_options();
  o.telemetry = &telemetry;
  Executor ex(q, o);
  const RunResult r = ex.run(src);
  EXPECT_EQ(r.arrivals, 20000u);

  std::size_t events = 0;
  for (const telemetry::Event& e : telemetry.events().snapshot()) {
    if (e.kind != telemetry::EventKind::kBackpressure) continue;
    ++events;
    EXPECT_GE(payload_uint(e.payload, "backlog"), 10000u) << e.payload;
    EXPECT_EQ(payload_uint(e.payload, "threshold"), 10000u) << e.payload;
  }
  EXPECT_EQ(events, 2u);
}

// The run loop refreshes every state's occupancy-imbalance gauge at each
// sample, the last one at run end, so the gauge is current on states that
// never migrated (a static index never does after warm-up).
TEST(Executor, RunEndsWithCurrentOccupancyGauges) {
  const QuerySpec q = make_complete_join_query(2, seconds_to_micros(50));
  std::vector<Tuple> tuples;
  for (int i = 0; i < 400; ++i) {
    tuples.push_back(mk(static_cast<StreamId>(i % 2), 0.05 * i, {i * 7 % 23}));
  }
  ScriptedSource src(std::move(tuples));
  telemetry::Telemetry telemetry;
  ExecutorOptions o = base_options();
  o.stem.backend = IndexBackend::kStaticBitmap;
  o.stem.initial_config = index::IndexConfig({3});
  o.telemetry = &telemetry;
  Executor ex(q, o);
  ex.run(src);
  for (const auto& stem : ex.stems()) {
    const std::string name = "stem." + std::to_string(stem->stream()) +
                             ".index.occupancy.imbalance";
    const auto* gauge = telemetry.metrics().find_gauge(name);
    ASSERT_NE(gauge, nullptr) << name;
    const auto& idx =
        dynamic_cast<const index::BitAddressIndex&>(stem->physical_index());
    EXPECT_EQ(stem->migrations(), 0u) << name;
    EXPECT_GT(gauge->value(), 0.0) << name;
    EXPECT_DOUBLE_EQ(gauge->value(), idx.occupancy().imbalance) << name;
  }
}

// A sampling interval that is not positive would never advance the
// sample clock (the run would append samples until memory runs out): the
// executors reject it at construction, naming the field.
TEST(Executor, RejectsNonPositiveSampleInterval) {
  const QuerySpec q = make_complete_join_query(2, seconds_to_micros(50));
  for (const TimeMicros every : {TimeMicros{0}, TimeMicros{-1}}) {
    ExecutorOptions o = base_options();
    o.sample_every = every;
    try {
      Executor ex(q, o);
      ADD_FAILURE() << "sample_every " << every << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("ExecutorOptions::sample_every"),
                std::string::npos)
          << e.what();
    }
    EXPECT_THROW(MultiQueryExecutor({q, q}, o), std::invalid_argument);
  }
}

// A single query is the one-query case of the shared engine: on_result
// fires as each arrival finishes routing, so in a wall-mode segment of 256
// arrivals the results of a later arrival see a later virtual clock (its
// own routing was charged first), and the results of one arrival share
// one clock value.
TEST(Executor, ResultsFireAsEachArrivalFinishesRouting) {
  const QuerySpec q = make_complete_join_query(2, seconds_to_micros(50));
  std::vector<Tuple> tuples;
  for (int i = 0; i < 600; ++i) {
    // One burst, so wall batches fill to 256; seq orders the arrivals.
    tuples.push_back(testutil::make_tuple({i % 5}, static_cast<TupleSeq>(i),
                                          seconds_to_micros(1),
                                          static_cast<StreamId>(i % 2)));
  }
  ScriptedSource src(std::move(tuples));
  ExecutorOptions o = base_options();
  o.engine = EngineMode::kWall;
  o.batch_size = 256;
  o.costs.route_cost_us = 1.0;  // every arrival advances the clock
  const Executor* ex = nullptr;
  std::vector<std::pair<TimeMicros, TupleSeq>> seen;  // (clock, arrival)
  o.on_result = [&](const JoinResult& r) {
    // The routed arrival is the result's newest member.
    TupleSeq arrival = 0;
    for (const Tuple* m : r.members) arrival = std::max(arrival, m->seq);
    seen.emplace_back(ex->clock().now(), arrival);
  };
  Executor executor(q, o);
  ex = &executor;
  const RunResult r = executor.run(src);
  ASSERT_EQ(seen.size(), r.outputs);
  std::size_t arrival_changes = 0;
  for (std::size_t i = 1; i < seen.size(); ++i) {
    if (seen[i].second == seen[i - 1].second) {
      EXPECT_EQ(seen[i].first, seen[i - 1].first) << i;
    } else {
      EXPECT_GT(seen[i].first, seen[i - 1].first) << i;
      ++arrival_changes;
    }
  }
  EXPECT_GT(arrival_changes, 500u);
}

// The one-query engine keeps the query's JAS order in every state, even
// where the query lists a stream's join attributes in descending id
// order, so an initial IC written in query order keeps its meaning.
TEST(Executor, StatesKeepTheQueryJasOrder) {
  std::vector<Schema> schemas = {Schema("R", {"a", "b"}),
                                 Schema("S", {"a", "b"})};
  // b before a: stream R's JAS is [1, 0].
  const QuerySpec q(std::move(schemas),
                    {JoinPredicate{0, 1, 1, 1}, JoinPredicate{0, 0, 1, 0}},
                    seconds_to_micros(50));
  ASSERT_EQ(q.layout(0).jas.attrs(), (std::vector<AttrId>{1, 0}));
  ExecutorOptions o = base_options();
  o.stem.backend = IndexBackend::kStaticBitmap;
  o.stem.initial_config = index::IndexConfig({4, 0});
  const Executor ex(q, o);
  for (StreamId s = 0; s < 2; ++s) {
    const StemOperator& stem = *ex.stems()[s];
    EXPECT_EQ(stem.layout().jas.attrs(), q.layout(s).jas.attrs()) << s;
    // All four bits index attribute b, the query's first join attribute.
    ASSERT_NE(stem.current_config(), nullptr);
    EXPECT_EQ(stem.current_config()->bits(0), 4) << s;
    EXPECT_EQ(stem.layout().jas.tuple_attr(0), 1u) << s;
  }
}

}  // namespace
}  // namespace amri::engine
