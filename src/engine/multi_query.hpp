// Multi-query AMR processing (paper §II: "our proposed logic equally
// applies to multiple SPJ queries"). Several SPJ queries run over the same
// streams; each stream has ONE shared STeM state whose join attribute set
// is the union of the attributes any query joins on, and one AMRI index
// (or baseline) serves the union of all queries' access patterns — the
// multi-query workload diversity that motivates AMRI's single versatile
// index.
//
// Built on the shared run-loop core (engine/run_loop.hpp): a multi-query
// routing sink admits arrivals against every query's WHERE selection,
// records per-arrival accept sets, and routes each query's sub-array
// through that query's eddy. Multi-query runs therefore inherit the full
// single-query feature matrix — sharded states, the batched pipeline, the
// wall-clock engine, telemetry (per-query labeled metrics, trace spans,
// profiler phases, per-query sample deltas) and the guardrailed tuner.
// Each query gets its own assessor set on the shared STeM
// (StemOptions::queries); tuning epochs merge the per-query snapshots so
// ONE shared tuner scores candidate ICs against the union workload, with
// per-query request shares attached to every decision.
//
// Constraints (checked by the constructor): all queries span the same
// stream universe and share the window length (the paper's
// default-window-length template), and at most 64 queries share an
// executor (accept sets are 64-bit masks).
#pragma once

#include <memory>
#include <vector>

#include "engine/executor.hpp"

namespace amri::engine {

struct MultiRunResult {
  /// Totals across queries. Every sample additionally carries the
  /// per-query output deltas (Sample::per_query_outputs), so dashboards
  /// can plot each query's throughput curve from one run.
  RunResult combined;
  std::vector<std::uint64_t> per_query_outputs;  ///< measured-phase, by query
};

class MultiQueryExecutor {
 public:
  /// Most queries one executor can share (one accept-mask bit each).
  static constexpr std::size_t kMaxQueries = 64;

  /// `queries` must all reference the same streams (ids and schemas) and
  /// window. The ExecutorOptions are applied to the shared states. Throws
  /// std::invalid_argument for an empty list, more than kMaxQueries
  /// queries, or queries whose stream counts or windows differ.
  MultiQueryExecutor(std::vector<QuerySpec> queries, ExecutorOptions options);

  // Eddies hold references into queries_: not copyable or movable.
  MultiQueryExecutor(const MultiQueryExecutor&) = delete;
  MultiQueryExecutor& operator=(const MultiQueryExecutor&) = delete;

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
    return shared_layouts_[s].jas;
  }

 private:
  std::vector<QuerySpec> queries_;
  ExecutorOptions options_;
  /// The shared run-loop state (clock/meter/memory/instruments).
  /// Constructed before stems_, which hold its meter and memory tracker.
  PipelineRuntime rt_;
  std::vector<StateLayout> shared_layouts_;  ///< union JAS per stream
  std::vector<std::unique_ptr<StemOperator>> stems_;
  std::vector<std::unique_ptr<EddyRouter>> eddies_;  ///< one per query
};

}  // namespace amri::engine
