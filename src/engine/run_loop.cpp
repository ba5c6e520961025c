#include "engine/run_loop.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <optional>

#include "engine/executor.hpp"
#include "engine/stem.hpp"
#include "engine/tuple_source.hpp"
#include "telemetry/json.hpp"

namespace amri::engine {

PipelineRuntime::PipelineRuntime(const ExecutorOptions& options)
    : meter(&clock, options.costs), memory(options.memory_budget) {
  if (options.telemetry != nullptr) {
    options.telemetry->attach_clock(&clock);
    auto& reg = options.telemetry->metrics();
    profiler = options.telemetry->profiler();
    if (profiler != nullptr) {
      run_wall_gauge = &reg.gauge("profile.run.wall_us");
    }
    if (options.trace_sample > 0) {
      span_latency_hist = &reg.histogram(
          "span.latency_us",
          telemetry::Histogram::exponential_bounds(0.5, 2.0, 22));
    }
  }
}

void PipelineRuntime::sync_queue_memory(std::size_t backlog) {
  const std::size_t now = backlog * kQueueBytesPerTuple;
  if (now > tracked_queue_bytes_) {
    memory.allocate(MemCategory::kQueue, now - tracked_queue_bytes_);
  } else if (now < tracked_queue_bytes_) {
    memory.release(MemCategory::kQueue, tracked_queue_bytes_ - now);
  }
  tracked_queue_bytes_ = now;
}

void PipelineRuntime::emit_oom_event(telemetry::Telemetry* tel) {
  if (tel == nullptr) return;
  telemetry::JsonWriter w;
  w.begin_object();
  w.field("total_bytes", static_cast<std::uint64_t>(memory.total()));
  w.field("budget_bytes", static_cast<std::uint64_t>(memory.budget()));
  w.begin_array("by_category");
  for (std::size_t c = 0; c < static_cast<std::size_t>(MemCategory::kCount);
       ++c) {
    const auto cat = static_cast<MemCategory>(c);
    telemetry::JsonWriter cw;
    cw.begin_object();
    cw.field("category", mem_category_name(cat));
    cw.field("bytes", static_cast<std::uint64_t>(memory.category(cat)));
    cw.end_object();
    w.value_raw(std::move(cw).take());
  }
  w.end_array();
  w.end_object();
  tel->emit(telemetry::EventKind::kOom, 0, std::move(w).take());
}

namespace {

using SteadyClock = std::chrono::steady_clock;

/// A sampled arrival awaiting its segment's routing: its span was begun
/// (and the "arrival" stage emitted) at drain time, then suspended.
struct PendingSpan {
  std::size_t index = 0;  ///< arrival's index within the batch
  std::uint64_t id = 0;
  SteadyClock::time_point start{};
};

/// Everything one run_pipeline call carries from phase to phase.
struct Pipeline {
  Pipeline(const ExecutorOptions& o, PipelineRuntime& r,
           const std::vector<std::unique_ptr<StemOperator>>& st,
           RoutingSink& sk, TupleSource& src)
      : options(o), rt(r), stems(st), sink(sk), source(src) {}

  const ExecutorOptions& options;
  PipelineRuntime& rt;
  const std::vector<std::unique_ptr<StemOperator>>& stems;
  RoutingSink& sink;
  TupleSource& source;
  telemetry::Telemetry* const tel = options.telemetry;
  const TimeMicros warmup_end = options.warmup;
  const TimeMicros measure_end = options.warmup + options.duration;
  /// Wall mode routes the whole batch as one segment under `visibility`;
  /// virtual mode routes each same-stream run as its own segment.
  const bool wall = options.engine == EngineMode::kWall;
  /// Every trace_sample-th drained arrival gets a span id that downstream
  /// producers (eddy hops, sharded fan-out) pick up via active_span().
  const std::size_t trace_sample = tel != nullptr ? options.trace_sample : 0;
  /// Multi-query sinks: samples carry per-query output deltas past the
  /// warm-up offsets, the same convention as `outputs`.
  const bool per_query = sink.wants_per_query();

  RunResult result;
  std::deque<Tuple> pending;  ///< due arrivals not yet drained (backlog)
  std::optional<Tuple> lookahead = source.next();
  TupleBatch batch;
  std::vector<const Tuple*> stored;  ///< batch-order stored copies
  BatchVisibility visibility;        ///< wall mode's sequence horizon
  std::vector<PendingSpan> spans;    ///< sampled arrivals, batch order
  std::size_t span_cursor = 0;       ///< first span not yet routed
  std::uint64_t drained_arrivals = 0;
  bool warmup_done = options.warmup == 0;
  bool backpressure_armed = true;
  std::uint64_t outputs_total = 0;
  std::uint64_t outputs_offset = 0;
  TimeMicros next_sample = options.warmup + options.sample_every;
  std::vector<std::uint64_t> pq_scratch;
  std::vector<std::uint64_t> pq_offsets;
};

template <typename Extra>
void emit_span_stage(const Pipeline& p, std::uint64_t id, StreamId stream,
                     const char* stage, Extra&& extra) {
  telemetry::JsonWriter w;
  w.begin_object();
  w.field("span", id);
  w.field("stage", stage);
  w.field("wall_ns", p.tel->wall_ns());
  extra(w);
  w.end_object();
  p.tel->emit(telemetry::EventKind::kSpan, stream, std::move(w).take());
}

void emit_run_start(const Pipeline& p) {
  if (p.tel == nullptr) return;
  telemetry::JsonWriter w;
  w.begin_object();
  w.field("warmup_us", static_cast<std::uint64_t>(p.options.warmup));
  w.field("duration_us", static_cast<std::uint64_t>(p.options.duration));
  w.field("streams", static_cast<std::uint64_t>(p.stems.size()));
  w.field("memory_budget",
          static_cast<std::uint64_t>(p.options.memory_budget));
  w.end_object();
  p.tel->emit(telemetry::EventKind::kRunStart, 0, std::move(w).take());
}

/// Phase kSample: record the engine state at virtual time `at`.
void sample(Pipeline& p, TimeMicros at) {
  telemetry::ScopedPhase scope(p.rt.profiler, telemetry::Phase::kSample);
  Sample s;
  s.t = at - p.warmup_end;
  s.outputs = p.outputs_total - p.outputs_offset;
  s.memory_bytes = p.rt.memory.total();
  s.backlog = p.pending.size();
  if (p.per_query) {
    p.pq_scratch.clear();
    p.sink.per_query_outputs(p.pq_scratch);
    if (p.pq_offsets.size() < p.pq_scratch.size()) {
      p.pq_offsets.resize(p.pq_scratch.size(), 0);
    }
    s.per_query_outputs.resize(p.pq_scratch.size());
    for (std::size_t q = 0; q < p.pq_scratch.size(); ++q) {
      s.per_query_outputs[q] = p.pq_scratch[q] - p.pq_offsets[q];
    }
  }
  if (p.tel != nullptr) {
    for (const auto& stem : p.stems) {
      StateSample ss;
      ss.stream = stem->stream();
      ss.stored_tuples = stem->stored_tuples();
      ss.probes = stem->probes_served();
      ss.migrations = stem->migrations();
      const index::IndexConfig* ic = stem->current_config();
      ss.index_config =
          ic != nullptr ? ic->to_string() : stem->physical_index().name();
      s.states.push_back(std::move(ss));
    }
    telemetry::JsonWriter w;
    w.begin_object();
    w.field("t", static_cast<std::int64_t>(s.t));
    w.field("outputs", s.outputs);
    w.field("memory_bytes", static_cast<std::uint64_t>(s.memory_bytes));
    w.field("backlog", static_cast<std::uint64_t>(s.backlog));
    if (p.per_query) {
      w.begin_array("per_query");
      for (const std::uint64_t q : s.per_query_outputs) w.value(q);
      w.end_array();
    }
    w.begin_array("states");
    for (const StateSample& ss : s.states) {
      telemetry::JsonWriter sw;
      sw.begin_object();
      sw.field("stream", static_cast<std::uint64_t>(ss.stream));
      sw.field("tuples", static_cast<std::uint64_t>(ss.stored_tuples));
      sw.field("probes", ss.probes);
      sw.field("migrations", ss.migrations);
      sw.field("ic", ss.index_config);
      sw.end_object();
      w.value_raw(std::move(sw).take());
    }
    w.end_array();
    w.end_object();
    p.tel->emit(telemetry::EventKind::kSample, 0, std::move(w).take());
  }
  p.result.samples.push_back(std::move(s));
}

void check_backpressure(Pipeline& p) {
  const std::size_t threshold = p.options.backpressure_threshold;
  if (p.tel == nullptr || threshold == 0) return;
  if (p.backpressure_armed && p.pending.size() >= threshold) {
    p.backpressure_armed = false;
    telemetry::JsonWriter w;
    w.begin_object();
    w.field("backlog", static_cast<std::uint64_t>(p.pending.size()));
    w.field("threshold", static_cast<std::uint64_t>(threshold));
    w.end_object();
    p.tel->emit(telemetry::EventKind::kBackpressure, 0, std::move(w).take());
  } else if (!p.backpressure_armed && p.pending.size() <= threshold / 2) {
    p.backpressure_armed = true;
  }
}

/// Warm-up boundary: apply trained configurations exactly once and take
/// the measurement-start baseline sample (t = 0).
void finish_warmup(Pipeline& p) {
  for (const auto& stem : p.stems) stem->finish_warmup();
  p.outputs_offset = p.outputs_total;
  if (p.per_query) {
    p.pq_offsets.clear();
    p.sink.per_query_outputs(p.pq_offsets);
  }
  p.warmup_done = true;
  sample(p, p.warmup_end);
}

enum class Drained : std::uint8_t {
  kBatch,    ///< the batch holds admitted arrivals to process
  kNothing,  ///< idle, or every drained arrival was filtered out
  kStop,     ///< memory exhausted, source exhausted or run over
};

/// Phase kDrain: pull every due arrival into the backlog, then pop up to
/// one batch from it through the sink's WHERE admission. Warm-up drains
/// batches of one, so the warm-up boundary falls on the same arrival at
/// every batch size.
Drained drain(Pipeline& p) {
  telemetry::ScopedPhase scope(p.rt.profiler, telemetry::Phase::kDrain);
  while (p.lookahead.has_value() && p.lookahead->ts <= p.rt.clock.now()) {
    p.pending.push_back(*p.lookahead);
    p.lookahead = p.source.next();
  }
  p.rt.sync_queue_memory(p.pending.size());
  check_backpressure(p);
  if (p.rt.memory.exhausted()) return Drained::kStop;
  if (p.pending.empty()) {
    if (!p.lookahead.has_value()) return Drained::kStop;  // source exhausted
    if (p.lookahead->ts >= p.measure_end) {
      p.rt.clock.advance_to(p.measure_end);
      return Drained::kStop;
    }
    p.rt.clock.advance_to(p.lookahead->ts);  // idle until the next arrival
    return Drained::kNothing;
  }

  p.batch.clear();
  p.stored.clear();
  p.spans.clear();
  p.span_cursor = 0;
  p.sink.begin_batch();
  const std::size_t cap =
      p.warmup_done ? std::max<std::size_t>(p.options.batch_size, 1) : 1;
  const std::size_t want = std::min(cap, p.pending.size());
  for (std::size_t i = 0; i < want; ++i) {
    const Tuple arrival = p.pending.front();
    p.pending.pop_front();
    if (!p.warmup_done && p.rt.clock.now() >= p.warmup_end) {
      // The t = 0 sample sees the backlog without this arrival.
      p.rt.sync_queue_memory(p.pending.size());
      finish_warmup(p);
    }
    const bool sampled =
        p.trace_sample != 0 && (++p.drained_arrivals % p.trace_sample) == 0;
    PendingSpan span;
    if (sampled) {
      span.index = p.batch.size();
      span.start = SteadyClock::now();
      span.id = p.tel->begin_span();
      emit_span_stage(p, span.id, arrival.stream, "arrival",
                      [&](telemetry::JsonWriter& w) {
                        w.field("backlog",
                                static_cast<std::uint64_t>(p.pending.size()));
                      });
    }
    // WHERE-clause selection: filtered arrivals are neither stored nor
    // routed (the paper's S of SPJ happens before the join network).
    const bool admitted = p.sink.admit(arrival, p.rt.meter);
    if (!admitted) {
      if (p.warmup_done) ++p.result.arrivals_filtered;
      if (sampled) {
        emit_span_stage(p, span.id, arrival.stream, "filtered",
                        [](telemetry::JsonWriter&) {});
      }
    }
    if (sampled) p.tel->end_span();  // resumed when its segment routes
    if (!admitted) continue;
    if (sampled) p.spans.push_back(span);
    p.batch.push(arrival);
  }
  p.rt.sync_queue_memory(p.pending.size());
  return p.batch.empty() ? Drained::kNothing : Drained::kBatch;
}

/// Phase kExpiry: expire every window to the current time, once per batch.
void expire(Pipeline& p) {
  telemetry::ScopedPhase scope(p.rt.profiler, telemetry::Phase::kExpiry);
  for (const auto& stem : p.stems) stem->expire(p.rt.clock.now());
}

/// Phase kInsert: store batch slots [a, b) run by run (each STeM holds one
/// stream, so per-stream arrival order is kept), appending their stored
/// copies to `stored` in batch order.
void insert(Pipeline& p, std::size_t a, std::size_t b) {
  {
    telemetry::ScopedPhase scope(p.rt.profiler, telemetry::Phase::kInsert);
    for (std::size_t r = a; r < b;) {
      const std::size_t e = p.batch.run_end(r);
      p.stems[p.batch.tuples[r].stream]->insert_batch(
          p.batch.tuples.data() + r, e - r, p.stored);
      r = e;
    }
    if (p.wall) p.visibility.assign(p.stored.data() + a, b - a);
  }
  for (std::size_t k = p.span_cursor;
       k < p.spans.size() && p.spans[k].index < b; ++k) {
    const PendingSpan& span = p.spans[k];
    emit_span_stage(p, span.id, p.batch.tuples[span.index].stream, "insert",
                    [&](telemetry::JsonWriter& w) {
                      w.field("batch", static_cast<std::uint64_t>(b - a));
                    });
  }
}

/// Phase kRoute: route the inserted batch slots [a, b) through the sink,
/// then close every sampled arrival's span in the segment.
void route(Pipeline& p, std::size_t a, std::size_t b) {
  const std::size_t lo = p.span_cursor;
  while (p.span_cursor < p.spans.size() && p.spans[p.span_cursor].index < b) {
    ++p.span_cursor;
  }
  const bool traced = lo < p.span_cursor;
  // The eddy attaches hop events to one active span per call; the
  // segment's first sampled arrival carries it. Every sampled arrival still
  // gets its own insert/done stages and latency observation.
  if (traced) p.tel->resume_span(p.spans[lo].id);
  std::uint64_t produced = 0;
  {
    telemetry::ScopedPhase scope(p.rt.profiler, telemetry::Phase::kRoute);
    produced = p.sink.route_batch(
        p.stored.data() + a, p.batch.done.data() + a, a, b - a,
        traced ? p.spans[lo].index - a : RoutingSink::kNoSpanRoot,
        p.warmup_done, p.wall ? &p.visibility : nullptr);
  }
  p.outputs_total += produced;
  for (std::size_t k = lo; k < p.span_cursor; ++k) {
    const PendingSpan& span = p.spans[k];
    const auto latency_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            SteadyClock::now() - span.start)
            .count();
    emit_span_stage(p, span.id, p.batch.tuples[span.index].stream, "done",
                    [&](telemetry::JsonWriter& w) {
                      w.field("latency_ns",
                              static_cast<std::uint64_t>(latency_ns));
                      w.field("run_results", produced);
                    });
    p.rt.span_latency_hist->observe(static_cast<double>(latency_ns) / 1000.0);
  }
  if (traced) p.tel->end_span();
}

/// Fill the run result from the final engine state and emit run_end.
void summarize(Pipeline& p) {
  RunResult& r = p.result;
  r.outputs = p.outputs_total - p.outputs_offset;
  r.arrivals_dropped = p.pending.size();
  r.peak_memory = p.rt.memory.peak();
  r.charged_us = p.rt.meter.charged_us();
  r.routing_decisions = p.rt.meter.routes();
  p.sink.take_rows(r.rows);
  for (const auto& stem : p.stems) {
    StateSummary s;
    s.stream = stem->stream();
    s.stored_tuples = stem->stored_tuples();
    s.probes = stem->probes_served();
    s.migrations = stem->migrations();
    s.suppressed = stem->suppressed();
    s.migration_pause_us = stem->migration_pause_us();
    s.state_bytes = stem->state_bytes();
    s.shards = stem->shard_count();
    s.shard_imbalance = stem->shard_imbalance();
    s.final_index = stem->physical_index().name();
    r.states.push_back(std::move(s));
  }
  if (p.tel != nullptr) {
    telemetry::JsonWriter w;
    w.begin_object();
    w.field("outputs", r.outputs);
    w.field("arrivals", r.arrivals);
    w.field("dropped", r.arrivals_dropped);
    w.field("completed", r.completed);
    w.field("died", r.died_at.has_value());
    w.field("peak_memory", static_cast<std::uint64_t>(r.peak_memory));
    w.field("charged_us", r.charged_us);
    w.end_object();
    p.tel->emit(telemetry::EventKind::kRunEnd, 0, std::move(w).take());
  }
}

}  // namespace

RunResult run_pipeline(const ExecutorOptions& options, PipelineRuntime& rt,
                       const std::vector<std::unique_ptr<StemOperator>>& stems,
                       RoutingSink& sink, TupleSource& source) {
  const auto run_wall_t0 = SteadyClock::now();
  Pipeline p(options, rt, stems, sink, source);
  emit_run_start(p);

  while (rt.clock.now() < p.measure_end) {
    const Drained drained = drain(p);
    if (drained == Drained::kStop) break;
    if (drained == Drained::kNothing) continue;
    expire(p);
    // Segments: each same-stream run (virtual), or the whole mixed-stream
    // batch under the sequence horizon (wall).
    for (std::size_t a = 0; a < p.batch.size();) {
      const std::size_t b = p.wall ? p.batch.size() : p.batch.run_end(a);
      insert(p, a, b);
      route(p, a, b);
      a = b;
    }
    if (p.warmup_done) p.result.arrivals += p.batch.size();
    if (rt.memory.exhausted()) break;
    while (p.warmup_done && rt.clock.now() >= p.next_sample &&
           p.next_sample <= p.measure_end) {
      sample(p, p.next_sample);
      p.next_sample += options.sample_every;
    }
  }

  if (!p.warmup_done) finish_warmup(p);
  const TimeMicros end_now = std::min(rt.clock.now(), p.measure_end);
  if (rt.memory.exhausted()) {
    p.result.died_at = end_now - p.warmup_end;
    rt.emit_oom_event(p.tel);
  } else {
    p.result.completed =
        rt.clock.now() >= p.measure_end || !p.lookahead.has_value();
  }
  sample(p, std::max(end_now, p.warmup_end));
  summarize(p);
  if (rt.run_wall_gauge != nullptr) {
    rt.run_wall_gauge->set(std::chrono::duration<double, std::micro>(
                               SteadyClock::now() - run_wall_t0)
                               .count());
  }
  return std::move(p.result);
}

}  // namespace amri::engine
