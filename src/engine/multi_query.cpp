#include "engine/multi_query.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace amri::engine {

namespace {

/// Throw std::invalid_argument unless `queries` can share one executor
/// under `options`; returns `options`. Runs before the runtime attaches
/// its clock to the telemetry, so a rejected executor leaves nothing
/// behind.
const ExecutorOptions& checked(const std::vector<QuerySpec>& queries,
                               const ExecutorOptions& options) {
  if (queries.empty()) {
    throw std::invalid_argument("multi-query executor: no queries");
  }
  if (queries.size() > MultiQueryExecutor::kMaxQueries) {
    throw std::invalid_argument(
        "multi-query executor: " + std::to_string(queries.size()) +
        " queries exceed the " +
        std::to_string(MultiQueryExecutor::kMaxQueries) +
        "-query accept mask");
  }
  const std::size_t k = queries[0].num_streams();
  const TimeMicros window = queries[0].window();
  for (std::size_t qi = 1; qi < queries.size(); ++qi) {
    if (queries[qi].num_streams() != k) {
      throw std::invalid_argument(
          "multi-query executor: query " + std::to_string(qi) + " has " +
          std::to_string(queries[qi].num_streams()) +
          " streams, query 0 has " + std::to_string(k));
    }
    if (queries[qi].window() != window) {
      throw std::invalid_argument(
          "multi-query executor: query " + std::to_string(qi) +
          " has window " + std::to_string(queries[qi].window()) +
          " us, query 0 has " + std::to_string(window) + " us");
    }
  }
  if (options.sample_every <= 0) {
    throw std::invalid_argument(
        "executor: ExecutorOptions::sample_every = " +
        std::to_string(options.sample_every) + " us is not positive");
  }
  return options;
}

}  // namespace

MultiQueryExecutor::MultiQueryExecutor(std::vector<QuerySpec> queries,
                                       ExecutorOptions options)
    : queries_(std::move(queries)),
      options_(std::move(options)),
      rt_(checked(queries_, options_)) {
  const std::size_t k = queries_[0].num_streams();
  const index::CostModel model(options_.model_params);
  std::vector<StemOperator*> stem_ptrs;
  for (StreamId s = 0; s < k; ++s) {
    // Union JAS in first-appearance order: query 0's JAS verbatim, then
    // each later query's new attributes. Shared layouts carry no peers:
    // peers are query-specific and only used by the per-query eddies.
    std::vector<AttrId> attrs;
    for (const QuerySpec& q : queries_) {
      for (const AttrId a : q.layout(s).jas.attrs()) {
        if (std::find(attrs.begin(), attrs.end(), a) == attrs.end()) {
          attrs.push_back(a);
        }
      }
    }
    StateLayout shared;
    shared.jas = index::JoinAttributeSet(std::move(attrs));
    stems_.push_back(std::make_unique<StemOperator>(
        s, shared, queries_[0].window(), options_.stem, model, &rt_.meter,
        &rt_.memory, options_.telemetry, queries_.size()));
    stem_ptrs.push_back(stems_.back().get());
  }

  // One eddy per query, probing the shared stems through position maps.
  for (std::size_t qi = 0; qi < queries_.size(); ++qi) {
    const QuerySpec& q = queries_[qi];
    QuerySlot slot{qi, queries_.size(), {}};
    slot.position_maps.resize(k);
    for (StreamId s = 0; s < k; ++s) {
      const auto& query_jas = q.layout(s).jas;
      for (std::size_t p = 0; p < query_jas.size(); ++p) {
        const std::size_t shared_pos =
            stems_[s]->layout().jas.position_of(query_jas.tuple_attr(p));
        assert(shared_pos < stems_[s]->layout().jas.size());
        slot.position_maps[s].push_back(
            static_cast<std::uint8_t>(shared_pos));
      }
    }
    eddies_.push_back(std::make_unique<EddyRouter>(
        q, stem_ptrs, options_.eddy, &rt_.meter, options_.telemetry,
        std::move(slot)));
  }
}

MultiRunResult MultiQueryExecutor::run(TupleSource& source) {
  return run_pipeline(options_, rt_, queries_, stems_, eddies_, source);
}

}  // namespace amri::engine
