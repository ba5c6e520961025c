// The discrete-event simulation driver for one SPJ query: pulls arrivals
// from a TupleSource, runs expiry → insert → eddy routing for them,
// charges all modelled work (hashing, comparisons, routing, migrations) to
// the virtual clock, tracks memory against a budget, and samples the
// cumulative-throughput curve.
//
// This substitutes for the paper's CAPE testbed: identical cost structure
// (the terms of Equation 1), deterministic, and laptop-fast. A run that
// exceeds the memory budget "dies" — reproducing the baselines' observed
// out-of-memory failures — and a run whose processing falls behind the
// arrival schedule accumulates backlog, reproducing the search-request
// backlog the paper describes for under-indexed configurations.
//
// Executor is a facade with no logic of its own: the engine
// (MultiQueryExecutor, engine/multi_query.hpp) holding its one query.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "engine/multi_query.hpp"

namespace amri::engine {

class Executor {
 public:
  /// Throws std::invalid_argument for options the engine rejects.
  Executor(const QuerySpec& query, ExecutorOptions options)
      : engine_({query}, std::move(options)) {}

  /// Consume `source` until the measured duration elapses, the source is
  /// exhausted, or the memory budget is exceeded.
  RunResult run(TupleSource& source) { return engine_.run(source).combined; }

  /// Engine internals exposed for inspection in tests and examples.
  const std::vector<std::unique_ptr<StemOperator>>& stems() const {
    return engine_.stems();
  }
  const EddyRouter& eddy() const { return engine_.eddy(0); }
  const VirtualClock& clock() const { return engine_.clock(); }
  const MemoryTracker& memory() const { return engine_.memory(); }
  const CostMeter& meter() const { return engine_.meter(); }

 private:
  MultiQueryExecutor engine_;
};

}  // namespace amri::engine
