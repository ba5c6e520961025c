// The discrete-event simulation driver: pulls arrivals from a TupleSource,
// runs expiry → insert → eddy routing for them, charges all modelled work
// (hashing, comparisons, routing, migrations) to the virtual clock, tracks
// memory against a budget, and samples the cumulative-throughput curve.
//
// This substitutes for the paper's CAPE testbed: identical cost structure
// (the terms of Equation 1), deterministic, and laptop-fast. A run that
// exceeds the memory budget "dies" — reproducing the baselines' observed
// out-of-memory failures — and a run whose processing falls behind the
// arrival schedule accumulates backlog, reproducing the search-request
// backlog the paper describes for under-indexed configurations.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "engine/eddy.hpp"
#include "engine/metrics.hpp"
#include "engine/query.hpp"
#include "engine/run_loop.hpp"
#include "engine/stem.hpp"
#include "engine/tuple_source.hpp"
#include "telemetry/telemetry.hpp"

namespace amri::engine {

struct ExecutorOptions {
  TimeMicros duration = seconds_to_micros(60);  ///< measured run length
  TimeMicros warmup = 0;  ///< training prefix (paper: quasi training data)
  TimeMicros sample_every = seconds_to_micros(10);
  CostParams costs{};
  StemOptions stem{};            ///< applied to every state
  EddyOptions eddy{};
  std::size_t memory_budget = MemoryTracker::kUnlimited;
  index::WorkloadParams model_params{};  ///< cost model for tuner decisions
  /// Materialise projected result rows into RunResult::rows (for examples
  /// and tests; throughput experiments leave this off).
  bool collect_rows = false;
  std::size_t max_collected_rows = 1000;
  /// Optional per-result callback (e.g. an AggregateSink); invoked for
  /// every complete join result, warm-up included.
  std::function<void(const JoinResult&)> on_result;
  /// Optional telemetry sink. When set, the executor attaches the virtual
  /// clock, threads the handle through every STeM, index, tuner, and the
  /// eddy, records run/sample/OOM/backpressure events, and fills
  /// Sample::states. Null (the default) keeps every telemetry touchpoint
  /// to a pointer check.
  telemetry::Telemetry* telemetry = nullptr;
  /// Backlog depth (queued arrivals) that raises a backpressure event.
  /// Re-armed once the backlog drains to half the threshold.
  std::size_t backpressure_threshold = 10000;
  /// Sample every Nth drained arrival into an end-to-end trace span
  /// (`--trace-sample`): span stage events flow from source drain through
  /// eddy routing hops, STeM probes and sharded fan-out to result emission
  /// or truncation, carrying both the virtual clock and steady-clock
  /// nanoseconds. 0 (the default) disables sampling. Requires `telemetry`.
  std::size_t trace_sample = 0;
  /// Ignored: sharded states run every shard on the calling thread. Kept
  /// only because the end-to-end benchmark runner still sets and records
  /// it.
  std::size_t fanout_threads = 0;
  /// Arrivals moved through the pipeline together (`--batch-size`): after
  /// warm-up the executor drains up to this many ready arrivals into a
  /// TupleBatch, expires every window once, then inserts and routes the
  /// batch segment by segment. Warm-up always drains batches of one, so 1
  /// (the default) moves every arrival on its own. Larger batches amortise
  /// real dispatch work and charge every shared computation once per tuple
  /// it serves, but they are not semantics-free:
  ///   * windows are expired at batch start, so a tuple whose deadline
  ///     falls inside a batch's virtual-time span survives a few probes
  ///     longer;
  ///   * EddyRouter::route_batch consults the routing policy once per
  ///     done-mask partition, where batch 1 consults it once per partial.
  ///     Under kCostBased or kLottery routing a larger batch can therefore
  ///     pick different routes, charge different costs and migrate
  ///     differently; kFixed routing is unaffected.
  /// docs/architecture.md, "Where exactness bends", lists every channel.
  std::size_t batch_size = 1;
  /// Execution mode (`--engine`): kVirtual routes each same-stream run of
  /// a batch as its own segment; kWall routes the whole post-warm-up batch
  /// as one mixed-stream segment under a sequence horizon (cross-run
  /// batching). Both run the same loop; the virtual clock governs arrival
  /// eligibility, window expiry and run length in either. See
  /// docs/architecture.md, "Wall-clock engine mode".
  EngineMode engine = EngineMode::kVirtual;
};

class Executor {
 public:
  Executor(const QuerySpec& query, ExecutorOptions options);

  /// Consume `source` until the measured duration elapses, the source is
  /// exhausted, or the memory budget is exceeded.
  RunResult run(TupleSource& source);

  /// Engine internals exposed for inspection in tests and examples.
  const std::vector<std::unique_ptr<StemOperator>>& stems() const {
    return stems_;
  }
  const EddyRouter& eddy() const { return *eddy_; }
  const VirtualClock& clock() const { return rt_.clock; }
  const MemoryTracker& memory() const { return rt_.memory; }
  const CostMeter& meter() const { return rt_.meter; }

 private:
  const QuerySpec& query_;
  ExecutorOptions options_;
  /// The shared run-loop state (clock/meter/memory/instruments).
  /// Constructed before stems_, which hold its meter and memory tracker.
  PipelineRuntime rt_;
  std::vector<std::unique_ptr<StemOperator>> stems_;
  std::unique_ptr<EddyRouter> eddy_;
};

}  // namespace amri::engine
