// The engine: N ≥ 1 SPJ queries over shared states (paper §II: "our
// proposed logic equally applies to multiple SPJ queries"). Each stream
// has ONE STeM whose join attribute set is the union of the attributes any
// query joins on, and one AMRI index (or baseline) serves the union of all
// queries' access patterns — the multi-query workload diversity that
// motivates AMRI's single versatile index. A single query is the
// one-query case (engine/executor.hpp).
//
// The union JAS lists query 0's JAS verbatim, then each later query's new
// attributes in first-appearance order, so a one-query state keeps its
// query's JAS order and an initial IC written in that order keeps its
// meaning. Each query gets its own eddy, which probes the shared states
// through position maps and attributes every probe to its query's
// assessor cells in the state's tuner; tuning epochs merge the per-query
// snapshots so ONE tuner scores candidate ICs against the union workload,
// with per-query request shares attached to every decision.
//
// The run loop (engine/run_loop.hpp) admits every arrival against every
// query's WHERE selection and routes it through the eddy of every query
// that accepted it, so a multi-query run composes with sharded states, the
// batched pipeline, the wall-clock engine, telemetry and the guardrailed
// tuner exactly as a single query does.
//
// Constraints (checked by the constructor): all queries span the same
// stream universe and share the window length (the paper's
// default-window-length template), and at most 64 queries share an
// executor (accept sets are 64-bit masks).
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
  /// Sampling interval of the throughput curve; must be positive.
  TimeMicros sample_every = seconds_to_micros(10);
  CostParams costs{};
  StemOptions stem{};            ///< applied to every state
  EddyOptions eddy{};            ///< applied to every query's eddy
  std::size_t memory_budget = MemoryTracker::kUnlimited;
  index::WorkloadParams model_params{};  ///< cost model for tuner decisions
  /// Materialise projected result rows into RunResult::rows (for examples
  /// and tests; throughput experiments leave this off).
  bool collect_rows = false;
  std::size_t max_collected_rows = 1000;
  /// Optional per-result callback (e.g. an AggregateSink); invoked for
  /// every complete join result, warm-up included, as each arrival
  /// finishes routing through one query's eddy.
  std::function<void(const JoinResult&)> on_result;
  /// Optional telemetry sink. When set, the executor attaches the virtual
  /// clock, threads the handle through every STeM, index, tuner, and the
  /// eddies, records run/sample/OOM/backpressure events, and fills
  /// Sample::states. Null (the default) keeps every telemetry touchpoint
  /// to a pointer check.
  telemetry::Telemetry* telemetry = nullptr;
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
  /// (the default) moves every arrival on its own. Batching amortises
  /// drain, expiry and insert only: the eddy still routes one arrival at a
  /// time, so every policy makes the same routing decisions, the tuners
  /// decide at the same requests and the same migrations fire as at batch
  /// 1. The one divergence is expiry timing: windows are expired at batch
  /// start, so a tuple whose deadline falls inside a batch's virtual-time
  /// span survives a few probes longer, and what those probes see can
  /// move everything downstream. Samples and the end of the run are also
  /// checked once per batch. docs/architecture.md, "Where exactness
  /// bends", has the details.
  std::size_t batch_size = 1;
  /// Execution mode (`--engine`): kVirtual routes each same-stream run of
  /// a batch as its own segment; kWall routes the whole post-warm-up batch
  /// as one mixed-stream segment under a sequence horizon (cross-run
  /// batching). Both run the same loop; the virtual clock governs arrival
  /// eligibility, window expiry and run length in either. See
  /// docs/architecture.md, "Wall-clock engine mode".
  EngineMode engine = EngineMode::kVirtual;
};

class MultiQueryExecutor {
 public:
  /// Most queries one executor can share (one accept-mask bit each).
  static constexpr std::size_t kMaxQueries = 64;

  /// `queries` must all reference the same streams (ids and schemas) and
  /// window. The ExecutorOptions are applied to the shared states. Throws
  /// std::invalid_argument for an empty list, more than kMaxQueries
  /// queries, queries whose stream counts or windows differ, or a
  /// non-positive `sample_every`.
  MultiQueryExecutor(std::vector<QuerySpec> queries, ExecutorOptions options);

  // Eddies hold references into queries_: not copyable or movable.
  MultiQueryExecutor(const MultiQueryExecutor&) = delete;
  MultiQueryExecutor& operator=(const MultiQueryExecutor&) = delete;

  /// Consume `source` until the measured duration elapses, the source is
  /// exhausted, or the memory budget is exceeded.
  MultiRunResult run(TupleSource& source);

  const std::vector<std::unique_ptr<StemOperator>>& stems() const {
    return stems_;
  }
  const QuerySpec& query(std::size_t i) const { return queries_[i]; }
  std::size_t num_queries() const { return queries_.size(); }
  const EddyRouter& eddy(std::size_t i) const { return *eddies_[i]; }
  const VirtualClock& clock() const { return rt_.clock; }
  const MemoryTracker& memory() const { return rt_.memory; }
  const CostMeter& meter() const { return rt_.meter; }

  /// The shared (union) join attribute set of stream `s`.
  const index::JoinAttributeSet& shared_jas(StreamId s) const {
    return stems_[s]->layout().jas;
  }

 private:
  std::vector<QuerySpec> queries_;
  ExecutorOptions options_;
  /// The shared run-loop state (clock/meter/memory/instruments).
  /// Constructed before stems_, which hold its meter and memory tracker.
  PipelineRuntime rt_;
  std::vector<std::unique_ptr<StemOperator>> stems_;
  std::vector<std::unique_ptr<EddyRouter>> eddies_;  ///< one per query
};

}  // namespace amri::engine
