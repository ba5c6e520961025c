// End-to-end latency tracing: sampled per-tuple spans must follow a tuple
// from source drain through routing hops to result emission, in both the
// tuple-at-a-time and the batched pipeline, and stay completely silent
// when sampling is off.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <string>

#include "../test_util.hpp"
#include "engine/executor.hpp"
#include "engine/multi_query.hpp"
#include "telemetry/telemetry.hpp"

namespace amri::engine {
namespace {

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

std::vector<Tuple> alternating_tuples(int n) {
  std::vector<Tuple> tuples;
  for (int i = 0; i < n; ++i) {
    tuples.push_back(mk(i % 2 == 0 ? 0 : 1, i + 1.0, {i / 2}));
  }
  return tuples;
}

ExecutorOptions traced_options(telemetry::Telemetry* telemetry,
                               std::size_t trace_sample) {
  ExecutorOptions o;
  o.duration = seconds_to_micros(200);
  o.sample_every = seconds_to_micros(50);
  o.stem.backend = IndexBackend::kScan;
  o.telemetry = telemetry;
  o.trace_sample = trace_sample;
  return o;
}

/// Extracts `"key":<number>` from a span payload; -1 when absent.
std::int64_t json_int(const std::string& payload, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = payload.find(needle);
  if (pos == std::string::npos) return -1;
  return std::strtoll(payload.c_str() + pos + needle.size(), nullptr, 10);
}

std::string json_str(const std::string& payload, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const auto pos = payload.find(needle);
  if (pos == std::string::npos) return {};
  const auto start = pos + needle.size();
  return payload.substr(start, payload.find('"', start) - start);
}

struct SpanLog {
  std::map<std::int64_t, std::vector<std::string>> stages_by_span;
  int done_events = 0;
  int done_with_latency = 0;
};

SpanLog collect_spans(const telemetry::Telemetry& telemetry) {
  SpanLog log;
  for (const telemetry::Event& e : telemetry.events().snapshot()) {
    if (e.kind != telemetry::EventKind::kSpan) continue;
    const std::int64_t span = json_int(e.payload, "span");
    EXPECT_GT(span, 0) << e.payload;
    const std::string stage = json_str(e.payload, "stage");
    log.stages_by_span[span].push_back(stage);
    EXPECT_GE(json_int(e.payload, "wall_ns"), 0) << e.payload;
    if (stage == "done") {
      ++log.done_events;
      if (json_int(e.payload, "latency_ns") >= 0) ++log.done_with_latency;
    }
  }
  return log;
}

TEST(SpanTrace, EveryNthArrivalGetsArrivalAndDone) {
  const QuerySpec q = make_complete_join_query(2, seconds_to_micros(500));
  telemetry::Telemetry telemetry;
  ScriptedSource src(alternating_tuples(40));
  Executor ex(q, traced_options(&telemetry, 4));
  ex.run(src);

  const SpanLog log = collect_spans(telemetry);
  // 40 arrivals sampled every 4th: 10 spans, each opening with "arrival"
  // and closing with "done" carrying a wall latency.
  EXPECT_EQ(log.stages_by_span.size(), 10u);
  EXPECT_EQ(log.done_events, 10);
  EXPECT_EQ(log.done_with_latency, 10);
  for (const auto& [span, stages] : log.stages_by_span) {
    ASSERT_FALSE(stages.empty());
    EXPECT_EQ(stages.front(), "arrival") << "span " << span;
    EXPECT_EQ(stages.back(), "done") << "span " << span;
  }
}

TEST(SpanTrace, HopsRecordProbeWork) {
  const QuerySpec q = make_complete_join_query(2, seconds_to_micros(500));
  telemetry::Telemetry telemetry;
  ScriptedSource src(alternating_tuples(20));
  Executor ex(q, traced_options(&telemetry, 1));  // sample everything
  ex.run(src);

  int hops = 0;
  for (const telemetry::Event& e : telemetry.events().snapshot()) {
    if (e.kind != telemetry::EventKind::kSpan) continue;
    if (json_str(e.payload, "stage") != "hop") continue;
    ++hops;
    EXPECT_GE(json_int(e.payload, "probe_ns"), 0) << e.payload;
    EXPECT_GE(json_int(e.payload, "compared"), 0) << e.payload;
  }
  // Every routed tuple probes the peer STeM at least once.
  EXPECT_GT(hops, 0);
}

TEST(SpanTrace, BatchedPipelineTracesSampledTuple) {
  const QuerySpec q = make_complete_join_query(2, seconds_to_micros(500));
  telemetry::Telemetry telemetry;
  ScriptedSource src(alternating_tuples(40));
  ExecutorOptions o = traced_options(&telemetry, 5);
  o.batch_size = 8;
  Executor ex(q, o);
  ex.run(src);

  const SpanLog log = collect_spans(telemetry);
  EXPECT_FALSE(log.stages_by_span.empty());
  EXPECT_GT(log.done_events, 0);
  EXPECT_EQ(log.done_events, log.done_with_latency);
  for (const auto& [span, stages] : log.stages_by_span) {
    EXPECT_EQ(stages.front(), "arrival") << "span " << span;
  }
}

/// Per-span trace skeleton: the arrival's stream plus its stage sequence
/// restricted to the stages both pipelines emit per sampled arrival.
/// "hop" events are excluded by design — the eddy attaches them to one
/// active span per routed run, so their placement is batch-shape-dependent.
struct SpanSkeleton {
  StreamId stream = 0;
  std::vector<std::string> stages;
  bool operator==(const SpanSkeleton& o) const {
    return stream == o.stream && stages == o.stages;
  }
};

std::vector<SpanSkeleton> span_skeletons(
    const telemetry::Telemetry& telemetry) {
  // Span ids are allocated in begin order == drain order, and the map is
  // ordered, so iteration yields spans in the order arrivals were drained.
  std::map<std::int64_t, SpanSkeleton> by_span;
  for (const telemetry::Event& e : telemetry.events().snapshot()) {
    if (e.kind != telemetry::EventKind::kSpan) continue;
    const std::string stage = json_str(e.payload, "stage");
    if (stage == "hop") continue;
    SpanSkeleton& sk = by_span[json_int(e.payload, "span")];
    sk.stream = e.stream;
    sk.stages.push_back(stage);
  }
  std::vector<SpanSkeleton> out;
  for (auto& [span, sk] : by_span) out.push_back(std::move(sk));
  return out;
}

TEST(SpanTrace, BatchedAndUnbatchedTraceSameArrivals) {
  // Regression: the batched drain used to keep only the *first* sampled
  // arrival of each batch, so --batch-size 64 traced a different (sparser)
  // arrival set than --batch-size 1. Both paths must now sample the same
  // Nth drained arrivals and give each the same stage skeleton.
  QuerySpec q = make_complete_join_query(2, seconds_to_micros(500));
  // A WHERE filter on stream 0 so the "filtered" span shape is exercised
  // too (values cycle i % 7; value 3 is rejected).
  q.set_selection(0, Selection({FilterPredicate{0, CompareOp::kNe, 3}}));
  std::vector<Tuple> tuples;
  for (int i = 0; i < 240; ++i) {
    tuples.push_back(mk(i % 2 == 0 ? 0 : 1, i + 1.0, {i % 7}));
  }

  auto run_with_batch = [&](std::size_t batch_size) {
    telemetry::Telemetry telemetry;
    ScriptedSource src(tuples);
    ExecutorOptions o = traced_options(&telemetry, 3);
    o.duration = seconds_to_micros(400);
    o.sample_every = seconds_to_micros(100);
    o.batch_size = batch_size;
    Executor ex(q, o);
    ex.run(src);
    return span_skeletons(telemetry);
  };

  const std::vector<SpanSkeleton> unbatched = run_with_batch(1);
  // 240 drained arrivals sampled every 3rd => 80 spans, filtered included.
  EXPECT_EQ(unbatched.size(), 80u);
  for (const std::size_t batch_size : {std::size_t{64}, std::size_t{7}}) {
    const std::vector<SpanSkeleton> batched = run_with_batch(batch_size);
    ASSERT_EQ(batched.size(), unbatched.size()) << "batch " << batch_size;
    for (std::size_t i = 0; i < unbatched.size(); ++i) {
      EXPECT_TRUE(batched[i] == unbatched[i])
          << "batch " << batch_size << ", span #" << i << ": stream "
          << static_cast<int>(batched[i].stream) << " vs "
          << static_cast<int>(unbatched[i].stream);
    }
  }
}

// Regression: at batch > 1 a query whose share of a segment was a single
// untraced arrival routed it through a path that picked the segment's
// active span up on its own, so that arrival's hops landed in the traced
// arrival's span. Bursts of two stream-0 arrivals, the first rejected by
// query 1: each traced first arrival is routed by query 0 alone and must
// carry exactly one hop.
TEST(SpanTrace, MultiQueryHopsStayWithTheirArrival) {
  std::vector<QuerySpec> queries(
      2, make_complete_join_query(2, seconds_to_micros(500)));
  queries[1].set_selection(
      0, Selection({FilterPredicate{0, CompareOp::kNe, 0}}));
  std::vector<Tuple> tuples;
  for (int i = 0; i < 10; ++i) {
    tuples.push_back(mk(0, i + 1.0, {0}));  // query 1 rejects it
    tuples.push_back(mk(0, i + 1.0, {1}));
  }
  telemetry::Telemetry telemetry;
  ScriptedSource src(tuples);
  ExecutorOptions o = traced_options(&telemetry, 1);
  o.batch_size = 8;
  MultiQueryExecutor ex(queries, o);
  ex.run(src);

  std::map<std::int64_t, int> hops_by_span;
  for (const telemetry::Event& e : telemetry.events().snapshot()) {
    if (e.kind != telemetry::EventKind::kSpan) continue;
    int& hops = hops_by_span[json_int(e.payload, "span")];
    if (json_str(e.payload, "stage") == "hop") ++hops;
  }
  // Every arrival is sampled; span ids follow drain order, so the odd ids
  // are the traced first arrivals of the bursts.
  ASSERT_EQ(hops_by_span.size(), tuples.size());
  for (const auto& [span, hops] : hops_by_span) {
    if (span % 2 == 1) {
      EXPECT_EQ(hops, 1) << "span " << span;
    }
  }
}

// Regression: the run loop kept the traced arrival's span active for its
// whole segment, so a sharded state's fan-out probes made for the segment's
// other arrivals logged "fanout" events into that span. A fan-out event
// belongs to one probe and every probe of a traced arrival logs a hop, so
// no span may hold more fanout events than hops.
TEST(SpanTrace, FanoutEventsStayWithTheirArrival) {
  const QuerySpec q = make_complete_join_query(3, seconds_to_micros(500));
  std::vector<Tuple> tuples;
  for (int i = 0; i < 96; ++i) {
    // Same-stream runs of 4 arrivals, 8 due at once: a batch of 8 routes
    // as two segments of 4.
    const auto stream = static_cast<StreamId>((i / 4) % 3);
    tuples.push_back(mk(stream, i / 8 + 1.0, {i % 3, i % 2}));
  }
  telemetry::Telemetry telemetry;
  ScriptedSource src(tuples);
  ExecutorOptions o = traced_options(&telemetry, 1);
  o.stem.backend = IndexBackend::kStaticBitmap;
  o.stem.initial_config = index::IndexConfig({1, 1});
  o.stem.shards = 4;
  o.batch_size = 8;
  Executor ex(q, o);
  ex.run(src);

  std::map<std::int64_t, int> hops;
  std::map<std::int64_t, int> fanouts;
  int total_fanouts = 0;
  for (const telemetry::Event& e : telemetry.events().snapshot()) {
    if (e.kind != telemetry::EventKind::kSpan) continue;
    const std::int64_t span = json_int(e.payload, "span");
    const std::string stage = json_str(e.payload, "stage");
    if (stage == "hop") ++hops[span];
    if (stage == "fanout") {
      ++fanouts[span];
      ++total_fanouts;
    }
  }
  ASSERT_GT(total_fanouts, 0) << "precondition: some probe fanned out";
  for (const auto& [span, n] : fanouts) {
    EXPECT_LE(n, hops[span]) << "span " << span;
  }
}

TEST(SpanTrace, NoSamplingMeansNoSpanEvents) {
  const QuerySpec q = make_complete_join_query(2, seconds_to_micros(500));
  telemetry::Telemetry telemetry;
  ScriptedSource src(alternating_tuples(20));
  Executor ex(q, traced_options(&telemetry, 0));
  ex.run(src);

  int span_events = 0;
  for (const telemetry::Event& e : telemetry.events().snapshot()) {
    if (e.kind == telemetry::EventKind::kSpan) ++span_events;
  }
  EXPECT_EQ(span_events, 0);
}

TEST(SpanTrace, SpanLatencyHistogramPopulated) {
  const QuerySpec q = make_complete_join_query(2, seconds_to_micros(500));
  telemetry::Telemetry telemetry;
  ScriptedSource src(alternating_tuples(30));
  Executor ex(q, traced_options(&telemetry, 3));
  ex.run(src);

  const auto* hist = telemetry.metrics().find_histogram("span.latency_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 10u);
  EXPECT_GT(hist->percentile(0.5), 0.0);
}

}  // namespace
}  // namespace amri::engine
