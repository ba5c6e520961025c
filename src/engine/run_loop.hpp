// The shared pipeline core: ONE drain → expiry → insert → route → sample
// → memory-accounting loop serving every executor. Every arrival moves
// through it in a TupleBatch (warm-up and batch size 1 drain batches of
// one); the only mode difference is where a routed segment ends — one
// same-stream run in virtual mode, the whole batch under the sequence
// horizon in wall mode. The loop is query-agnostic — everything
// query-specific (WHERE admission, eddy routing, result collection) goes
// through a RoutingSink, so the single-query Executor and the
// MultiQueryExecutor run bit-for-bit the same engine: same warm-up
// boundary, same segments, same telemetry (spans, profiler phases,
// samples, backpressure, OOM), same queue-memory accounting.
//
// PipelineRuntime bundles the engine-neutral run state both executors
// used to duplicate (virtual clock, cost meter, memory tracker, resolved
// telemetry instruments).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/cost_meter.hpp"
#include "common/memory_tracker.hpp"
#include "common/tuple.hpp"
#include "common/tuple_batch.hpp"
#include "common/virtual_clock.hpp"
#include "engine/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace amri::engine {

struct ExecutorOptions;
class StemOperator;
class TupleSource;

/// How the executor moves arrivals through the pipeline.
enum class EngineMode : std::uint8_t {
  /// Cost-metered virtual-clock execution (the paper's reproduction):
  /// strictly phased drain → expiry → insert → route, bit-for-bit
  /// deterministic for a given batch size.
  kVirtual = 0,
  /// Wall-clock mode: same loop, modelled costs and virtual clock, but
  /// each post-warm-up batch is inserted whole and routed as one
  /// mixed-stream segment under a per-root sequence horizon
  /// (BatchVisibility) instead of run by run. Join results match virtual
  /// mode exactly; modelled probe-work counters may exceed it (the horizon
  /// filters matches after the comparisons were charged).
  kWall,
};

/// Modelled bytes per queued (undrained) arrival: the tuple payload plus
/// container overhead. The ONE place the queue-accounting constant lives —
/// every executor charges MemCategory::kQueue through
/// PipelineRuntime::sync_queue_memory, so single- and multi-query
/// accounting can never drift.
inline constexpr std::size_t kQueueBytesPerTuple = sizeof(Tuple) + 16;

/// Query-specific half of the pipeline, implemented by each executor:
/// WHERE admission and eddy routing. The run loop owns batching, expiry,
/// insertion, sampling and accounting; the sink owns everything that needs
/// a QuerySpec. Multi-query sinks additionally remember, per admitted
/// batch slot, which queries accepted the arrival, and route each query's
/// sub-array through that query's eddy.
class RoutingSink {
 public:
  /// route_batch: no member of the routed span carries the active span.
  static constexpr std::size_t kNoSpanRoot = static_cast<std::size_t>(-1);

  virtual ~RoutingSink() = default;

  /// True when samples should carry per-query output deltas
  /// (Sample::per_query_outputs). Multi-query sinks return true.
  virtual bool wants_per_query() const { return false; }

  /// WHERE admission for `arrival`, charging selection comparisons to
  /// `meter`. Returns true when the arrival enters the pipeline (any query
  /// accepts it); the sink records the accept set for the batch slot the
  /// arrival will take (the current batch's size).
  virtual bool admit(const Tuple& arrival, CostMeter& meter) = 0;

  /// A new admission batch starts: forget the previous batch's accepts.
  /// Called before every drain.
  virtual void begin_batch() {}

  /// Route the admitted batch slots [first, first + n): `stored[j]` /
  /// `done[j]` describe slot first + j. With `visibility` null this is a
  /// same-stream run (virtual mode); set, it is the whole mixed-stream
  /// batch under the wall-mode sequence horizon. `span_root`, when not
  /// kNoSpanRoot, is the index in [0, n) carrying the active trace span.
  /// `measured` is true after the warm-up boundary: only measured results
  /// are collected as rows (on_result sees every result). Returns complete
  /// results produced.
  virtual std::uint64_t route_batch(const Tuple* const* stored,
                                    const std::uint32_t* done,
                                    std::size_t first, std::size_t n,
                                    std::size_t span_root, bool measured,
                                    const BatchVisibility* visibility) = 0;

  /// Append cumulative per-query outputs (multi-query sinks; the run loop
  /// turns these into per-sample deltas).
  virtual void per_query_outputs(std::vector<std::uint64_t>& out) const {
    (void)out;
  }

  /// Move collected projected rows into the run result.
  virtual void take_rows(std::vector<SmallVector<Value, kInlineAttrs>>& rows) {
    (void)rows;
  }
};

/// Engine-neutral run state shared by every executor: clock, meter,
/// memory, and the telemetry instruments the run loop records into.
class PipelineRuntime {
 public:
  explicit PipelineRuntime(const ExecutorOptions& options);

  PipelineRuntime(const PipelineRuntime&) = delete;
  PipelineRuntime& operator=(const PipelineRuntime&) = delete;

  VirtualClock clock;
  CostMeter meter;
  MemoryTracker memory;
  /// Observability handles, resolved once at construction (null detached).
  telemetry::Profiler* profiler = nullptr;
  telemetry::Histogram* span_latency_hist = nullptr;  ///< span.latency_us
  telemetry::Gauge* run_wall_gauge = nullptr;         ///< profile.run.wall_us

  /// Track `backlog` queued arrivals against MemCategory::kQueue at
  /// kQueueBytesPerTuple each.
  void sync_queue_memory(std::size_t backlog);

  /// Emit the per-category OOM breakdown event (no-op when `tel` is null).
  void emit_oom_event(telemetry::Telemetry* tel);

 private:
  std::size_t tracked_queue_bytes_ = 0;
};

/// The unified run loop: consume `source` until the measured duration
/// elapses, the source is exhausted, or the memory budget is exceeded.
/// `stems` is indexed by StreamId; all query-specific work goes through
/// `sink`. Each iteration drains one batch, expires every window once, then
/// inserts and routes the batch segment by segment.
RunResult run_pipeline(const ExecutorOptions& options, PipelineRuntime& rt,
                       const std::vector<std::unique_ptr<StemOperator>>& stems,
                       RoutingSink& sink, TupleSource& source);

}  // namespace amri::engine
