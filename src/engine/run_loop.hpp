// The engine's one run loop: drain → expiry → insert → route → sample →
// memory accounting, for N ≥ 1 queries over shared states. Every arrival
// moves through it in a TupleBatch (warm-up and batch size 1 drain batches
// of one); the only mode difference is where a routed segment ends — one
// same-stream run in virtual mode, the whole batch under the sequence
// horizon in wall mode. Admission evaluates every query's WHERE selection
// and keeps a per-slot accept mask; routing sends each arrival, in query
// order, through the eddy of every query that accepted it. A single query
// is the one-query case of the same loop (engine/executor.hpp).
//
// PipelineRuntime bundles the engine-neutral run state (virtual clock,
// cost meter, memory tracker, resolved telemetry instruments).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/cost_meter.hpp"
#include "common/memory_tracker.hpp"
#include "common/tuple.hpp"
#include "common/virtual_clock.hpp"
#include "engine/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace amri::engine {

struct ExecutorOptions;
class EddyRouter;
class QuerySpec;
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
/// container overhead, charged to MemCategory::kQueue through
/// PipelineRuntime::sync_queue_memory.
inline constexpr std::size_t kQueueBytesPerTuple = sizeof(Tuple) + 16;

/// Engine-neutral run state: clock, meter, memory, and the telemetry
/// instruments the run loop records into.
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

/// The run loop: consume `source` until the measured duration elapses, the
/// source is exhausted, or the memory budget is exceeded. `stems` is
/// indexed by StreamId; `eddies[i]` routes for `queries[i]`. Each
/// iteration drains one batch, expires every window once, then inserts
/// and routes the batch segment by segment.
MultiRunResult run_pipeline(
    const ExecutorOptions& options, PipelineRuntime& rt,
    const std::vector<QuerySpec>& queries,
    const std::vector<std::unique_ptr<StemOperator>>& stems,
    const std::vector<std::unique_ptr<EddyRouter>>& eddies,
    TupleSource& source);

}  // namespace amri::engine
