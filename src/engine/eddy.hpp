// The eddy router (paper §I, after Avnur & Hellerstein): the central
// operator that decides, per (partial) tuple, which STeM to visit next
// based on up-to-date statistics. The route a tuple takes determines the
// access pattern each state's probe carries — the coupling AMRI exploits.
//
// Join semantics: a complete result is emitted when the partial result has
// visited every stream's state. Because a probe binds *every* join
// attribute whose peer stream is already in the partial, all predicates
// among the joined streams are verified incrementally; each result is
// produced exactly once, when its latest-arriving member routes.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/cost_meter.hpp"
#include "common/small_vector.hpp"
#include "common/tuple_batch.hpp"
#include "engine/query.hpp"
#include "engine/routing_policy.hpp"
#include "engine/stem.hpp"

namespace amri::engine {

struct EddyOptions {
  RoutingOptions routing{};
  /// Safety valve against join explosions: partial results processed per
  /// arrival (complete results still counted, processing truncated).
  std::size_t max_partials_per_arrival = 1u << 20;
  /// A routing decision for a given done-mask is reused for the next
  /// `decision_reuse - 1` partials with the same mask, amortising the
  /// per-decision cost. It caches only the policy choice; how many
  /// arrivals move through the pipeline together is the executor's
  /// `--batch-size`.
  std::size_t decision_reuse = 1;
};

/// Which of the queries sharing the states an eddy routes for. One query
/// (the default) keeps the states unshared. With more than one, the states
/// store every tuple some query admitted, so the eddy re-checks its own
/// WHERE selection on probe matches, and its counters are labelled
/// "q<index>.eddy" instead of "eddy". The eddy attributes every probe to
/// query `index` in the target state's tuner.
struct QuerySlot {
  std::size_t index = 0;
  std::size_t count = 1;
  /// The states may index a superset of this query's join attributes (the
  /// union over the queries): `position_maps[s][p]` is the state's JAS
  /// position of this query's JAS position p on stream s. Empty: identity.
  std::vector<std::vector<std::uint8_t>> position_maps;
};

/// A complete join result: one stored tuple per stream.
struct JoinResult {
  SmallVector<const Tuple*, 8> members;  ///< indexed by StreamId
};

class EddyRouter {
 public:
  /// `stems[s]` must be the STeM of stream s. Optional `sink` collects
  /// complete results (null = count only). With `telemetry` set, routing
  /// decisions are counted and every change of routing target for a given
  /// done-mask is logged as a routing_change event.
  EddyRouter(const QuerySpec& query, std::vector<StemOperator*> stems,
             EddyOptions options, CostMeter* meter = nullptr,
             telemetry::Telemetry* telemetry = nullptr, QuerySlot slot = {});

  /// Route one arrival that was already inserted into its own STeM as
  /// `stored`, depth first: the policy is consulted for every partial
  /// (subject to decision_reuse) and the routing statistics are updated
  /// after every probe. Returns the number of complete results produced;
  /// `sink`, when set, receives them.
  ///   * `done`: streams the arrival already covers; its own stream is
  ///     always added.
  ///   * `span`: the arrival's trace span id, or 0 when it is not traced.
  ///     A traced arrival emits a "hop" span event per probe and a
  ///     "truncate" event if its valve trips; its span is the telemetry's
  ///     active span while it routes (sharded states read it for their
  ///     "fanout" events) and none is active afterwards.
  ///   * `visibility`, `order`: wall mode's sequence horizon. Probe matches
  ///     that are members of the batch at order >= `order` are dropped, so
  ///     the arrival sees the window state sequential execution would show
  ///     it although the whole batch was inserted up front. The dropped
  ///     comparisons were still performed and charged. Null keeps every
  ///     match.
  /// On shared states (QuerySlot::count > 1) the remaining matches are
  /// re-checked against the target stream's WHERE selection, one charged
  /// compare per evaluated predicate; otherwise admission already enforced
  /// it and nothing is re-checked or charged.
  std::uint64_t route(const Tuple* stored,
                      std::vector<JoinResult>* sink = nullptr,
                      std::uint32_t done = 0, std::uint64_t span = 0,
                      const BatchVisibility* visibility = nullptr,
                      std::size_t order = 0);

  RoutingStatistics& statistics() { return stats_; }
  const RoutingStatistics& statistics() const { return stats_; }
  const RoutingPolicy& policy() const { return *policy_; }

  std::uint64_t arrivals_routed() const { return arrivals_; }
  std::uint64_t results_produced() const { return results_; }
  std::uint64_t partials_truncated() const { return truncated_; }

 private:
  struct Partial {
    std::uint32_t done = 0;
    SmallVector<const Tuple*, 8> members;  ///< indexed by StreamId
  };

  const QuerySpec& query_;
  std::vector<StemOperator*> stems_;
  std::vector<std::vector<std::uint8_t>> position_maps_;
  std::size_t query_index_;  ///< the query probes are attributed to
  bool states_shared_;       ///< re-check WHERE on matches
  EddyOptions options_;
  std::unique_ptr<RoutingPolicy> policy_;
  CostMeter* meter_;
  RoutingStatistics stats_;
  std::uint64_t arrivals_ = 0;
  std::uint64_t results_ = 0;
  std::uint64_t truncated_ = 0;
  /// Decision-reuse cache: done-mask -> (candidate index, remaining uses).
  struct CachedDecision {
    std::size_t pick = 0;
    std::size_t remaining = 0;
  };
  std::unordered_map<std::uint32_t, CachedDecision> decision_cache_;
  void note_decision(std::uint32_t done_mask, StreamId target);
  // Routing arenas: cleared per use, capacity kept, so steady-state routing
  // allocates nothing per partial (the probe key's values spill to the heap
  // on a JAS wider than kInlineAttrs, once).
  std::vector<Partial> stack_;
  RoutingContext ctx_;
  index::ProbeKey key_;
  // Telemetry instruments (null when detached).
  telemetry::Telemetry* telemetry_ = nullptr;
  telemetry::Counter* decisions_counter_ = nullptr;
  telemetry::Counter* results_counter_ = nullptr;
  telemetry::Counter* truncated_counter_ = nullptr;
  telemetry::Counter* route_change_counter_ = nullptr;
  /// Last fresh routing target per done-mask, for change detection.
  std::unordered_map<std::uint32_t, StreamId> last_target_;
};

}  // namespace amri::engine
