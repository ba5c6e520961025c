#include "engine/multi_query.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "engine/run_loop.hpp"

namespace amri::engine {

namespace {

// The multi-query routing sink. Admission evaluates EVERY query's WHERE
// selection in query order (each one charged — every query logically
// inspects every arrival on its streams) and records the accept set as a
// per-slot bitmask; an arrival enters the shared state if any query
// accepts it. Routing is arrival-major: each routed slot goes, in query
// order, through the eddy of every query that accepted it. Before a query
// routes, its index is installed as the active attribution target on
// every shared STeM so probe statistics land in that query's assessor
// cells.
class MultiQuerySink final : public RoutingSink {
 public:
  MultiQuerySink(const std::vector<QuerySpec>& queries,
                 std::vector<std::unique_ptr<EddyRouter>>& eddies,
                 const std::vector<std::unique_ptr<StemOperator>>& stems,
                 const ExecutorOptions& options)
      : queries_(queries), eddies_(eddies), stems_(stems), options_(options) {
    per_query_.assign(queries_.size(), 0);
  }

  bool wants_per_query() const override { return true; }

  bool admit(const Tuple& arrival, CostMeter& meter) override {
    std::uint64_t mask = 0;
    for (std::size_t qi = 0; qi < queries_.size(); ++qi) {
      if (queries_[qi].selection(arrival.stream).matches(arrival, &meter)) {
        mask |= std::uint64_t{1} << qi;
      }
    }
    if (mask == 0) return false;
    accepts_.push_back(mask);
    return true;
  }

  void begin_batch() override { accepts_.clear(); }

  std::uint64_t route_batch(const Tuple* const* stored,
                            const std::uint32_t* done, std::size_t first,
                            std::size_t n, std::size_t span_root,
                            std::uint64_t span, bool measured,
                            const BatchVisibility* visibility) override {
    const bool want_rows = options_.collect_rows && measured &&
                           rows_.size() < options_.max_collected_rows;
    const bool want_sink = want_rows || options_.on_result != nullptr;
    std::uint64_t total = 0;
    for (std::size_t j = 0; j < n; ++j) {
      // Matches held for other queries only are rejected by each query's
      // selection re-check inside its eddy (on when queries share states).
      for (std::uint64_t accepts = accepts_[first + j]; accepts != 0;
           accepts &= accepts - 1) {
        const auto qi = static_cast<std::size_t>(std::countr_zero(accepts));
        set_active_query(qi);
        result_sink_.clear();
        const std::uint64_t produced = eddies_[qi]->route(
            stored[j], want_sink ? &result_sink_ : nullptr, done[j],
            j == span_root ? span : 0, visibility, j);
        if (want_sink) deliver(qi, want_rows);
        total += produced;
        per_query_[qi] += produced;
      }
    }
    return total;
  }

  void per_query_outputs(std::vector<std::uint64_t>& out) const override {
    out.insert(out.end(), per_query_.begin(), per_query_.end());
  }

  void take_rows(
      std::vector<SmallVector<Value, kInlineAttrs>>& rows) override {
    rows = std::move(rows_);
  }

 private:
  void set_active_query(std::size_t qi) {
    for (const auto& stem : stems_) stem->set_active_query(qi);
  }

  void deliver(std::size_t qi, bool want_rows) {
    for (const JoinResult& jr : result_sink_) {
      if (options_.on_result) options_.on_result(jr);
      if (want_rows && rows_.size() < options_.max_collected_rows) {
        rows_.push_back(queries_[qi].projection().apply(jr.members));
      }
    }
  }

  const std::vector<QuerySpec>& queries_;
  std::vector<std::unique_ptr<EddyRouter>>& eddies_;
  const std::vector<std::unique_ptr<StemOperator>>& stems_;
  const ExecutorOptions& options_;
  /// Accept bitmask per admitted slot of the live batch (bit qi = query qi
  /// accepted); parallel to the core's TupleBatch.
  std::vector<std::uint64_t> accepts_;
  std::vector<std::uint64_t> per_query_;  ///< cumulative outputs by query
  std::vector<JoinResult> result_sink_;  ///< reused per-route result arena
  std::vector<SmallVector<Value, kInlineAttrs>> rows_;
};

}  // namespace

MultiQueryExecutor::MultiQueryExecutor(std::vector<QuerySpec> queries,
                                       ExecutorOptions options)
    : queries_(std::move(queries)),
      options_(std::move(options)),
      rt_(options_) {
  if (queries_.empty()) {
    throw std::invalid_argument("multi-query executor: no queries");
  }
  if (queries_.size() > kMaxQueries) {
    throw std::invalid_argument(
        "multi-query executor: " + std::to_string(queries_.size()) +
        " queries exceed the " + std::to_string(kMaxQueries) +
        "-query accept mask");
  }
  const std::size_t k = queries_[0].num_streams();
  const TimeMicros window = queries_[0].window();
  for (std::size_t qi = 1; qi < queries_.size(); ++qi) {
    if (queries_[qi].num_streams() != k) {
      throw std::invalid_argument(
          "multi-query executor: query " + std::to_string(qi) + " has " +
          std::to_string(queries_[qi].num_streams()) +
          " streams, query 0 has " + std::to_string(k));
    }
    if (queries_[qi].window() != window) {
      throw std::invalid_argument(
          "multi-query executor: query " + std::to_string(qi) +
          " has window " + std::to_string(queries_[qi].window()) +
          " us, query 0 has " + std::to_string(window) + " us");
    }
  }

  // Union JAS per stream (sorted tuple-attribute ids for determinism).
  shared_layouts_.resize(k);
  for (StreamId s = 0; s < k; ++s) {
    std::vector<AttrId> attrs;
    for (const QuerySpec& q : queries_) {
      for (const AttrId a : q.layout(s).jas.attrs()) {
        if (std::find(attrs.begin(), attrs.end(), a) == attrs.end()) {
          attrs.push_back(a);
        }
      }
    }
    std::sort(attrs.begin(), attrs.end());
    shared_layouts_[s].jas = index::JoinAttributeSet(std::move(attrs));
    // Shared layouts carry no peers: peers are query-specific and only
    // used by the per-query eddies.
  }

  // Shared STeMs sized for the union JAS, with one assessor set per query
  // so the shared tuner can attribute and merge per-query demand.
  options_.stem.queries = queries_.size();
  const index::CostModel model(options_.model_params);
  std::vector<StemOperator*> stem_ptrs;
  for (StreamId s = 0; s < k; ++s) {
    StemOptions stem_opts = options_.stem;
    if (stem_opts.initial_config.num_attrs() !=
        shared_layouts_[s].jas.size()) {
      // Re-spread the configured bit budget over the union JAS.
      const int budget = stem_opts.initial_config.total_bits();
      std::vector<std::uint8_t> bits(shared_layouts_[s].jas.size(), 0);
      for (int b = 0; b < budget; ++b) {
        ++bits[static_cast<std::size_t>(b) % bits.size()];
      }
      stem_opts.initial_config = index::IndexConfig(bits);
    }
    stems_.push_back(std::make_unique<StemOperator>(
        s, shared_layouts_[s], window, stem_opts, model, &rt_.meter,
        &rt_.memory, options_.telemetry));
    stem_ptrs.push_back(stems_.back().get());
  }

  // One eddy per query, probing the shared stems through position maps,
  // with per-query labeled routing metrics. With more than one query a
  // shared state holds tuples only another query admitted, so each eddy
  // re-checks its own WHERE on matches; a lone query's states hold only
  // tuples its selection admitted, exactly as in a single-query run.
  for (std::size_t qi = 0; qi < queries_.size(); ++qi) {
    const QuerySpec& q = queries_[qi];
    EddyOptions eddy_opts = options_.eddy;
    eddy_opts.metrics_prefix = "q" + std::to_string(qi) + ".eddy";
    auto eddy = std::make_unique<EddyRouter>(q, stem_ptrs, eddy_opts,
                                             &rt_.meter, options_.telemetry);
    std::vector<std::vector<std::uint8_t>> maps(k);
    for (StreamId s = 0; s < k; ++s) {
      const auto& query_jas = q.layout(s).jas;
      for (std::size_t p = 0; p < query_jas.size(); ++p) {
        const std::size_t shared_pos =
            shared_layouts_[s].jas.position_of(query_jas.tuple_attr(p));
        assert(shared_pos < shared_layouts_[s].jas.size());
        maps[s].push_back(static_cast<std::uint8_t>(shared_pos));
      }
    }
    eddy->set_position_maps(std::move(maps));
    eddy->set_states_shared(queries_.size() > 1);
    eddies_.push_back(std::move(eddy));
  }
}

MultiRunResult MultiQueryExecutor::run(TupleSource& source) {
  MultiQuerySink sink(queries_, eddies_, stems_, options_);
  MultiRunResult result;
  result.combined = run_pipeline(options_, rt_, stems_, sink, source);
  // The core always takes a final sample; its per-query deltas are the
  // measured-phase attribution.
  if (!result.combined.samples.empty() &&
      result.combined.samples.back().per_query_outputs.size() ==
          queries_.size()) {
    result.per_query_outputs = result.combined.samples.back().per_query_outputs;
  } else {
    result.per_query_outputs.assign(queries_.size(), 0);
  }
  return result;
}

}  // namespace amri::engine
