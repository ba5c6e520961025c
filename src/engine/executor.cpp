#include "engine/executor.hpp"

#include <utility>
#include <vector>

#include "engine/run_loop.hpp"

namespace amri::engine {

namespace {

// The single-query routing sink: WHERE admission against the one QuerySpec
// and routing of every arrival through the one eddy. The row cap is
// re-checked per append, rows are collected only after the warm-up
// boundary, and on_result fires for every complete join result (warm-up
// included).
class SingleQuerySink final : public RoutingSink {
 public:
  SingleQuerySink(const QuerySpec& query, EddyRouter& eddy,
                  const ExecutorOptions& options)
      : query_(query), eddy_(eddy), options_(options) {}

  bool admit(const Tuple& arrival, CostMeter& meter) override {
    // One query: admission IS the accept set.
    return query_.selection(arrival.stream).matches(arrival, &meter);
  }

  std::uint64_t route_batch(const Tuple* const* stored,
                            const std::uint32_t* done, std::size_t first,
                            std::size_t n, std::size_t span_root,
                            std::uint64_t span, bool measured,
                            const BatchVisibility* visibility) override {
    (void)first;  // one query: every admitted slot routes through eddy_
    const bool want_rows = options_.collect_rows && measured &&
                           rows_.size() < options_.max_collected_rows;
    const bool want_sink = want_rows || options_.on_result != nullptr;
    batch_sink_.clear();
    std::uint64_t produced = 0;
    for (std::size_t j = 0; j < n; ++j) {
      produced += eddy_.route(stored[j], want_sink ? &batch_sink_ : nullptr,
                              done[j], j == span_root ? span : 0, visibility,
                              j);
    }
    deliver(batch_sink_, want_rows);
    return produced;
  }

  void take_rows(
      std::vector<SmallVector<Value, kInlineAttrs>>& rows) override {
    rows = std::move(rows_);
  }

 private:
  void deliver(const std::vector<JoinResult>& results, bool want_rows) {
    for (const JoinResult& jr : results) {
      if (options_.on_result) options_.on_result(jr);
      if (want_rows && rows_.size() < options_.max_collected_rows) {
        rows_.push_back(query_.projection().apply(jr.members));
      }
    }
  }

  const QuerySpec& query_;
  EddyRouter& eddy_;
  const ExecutorOptions& options_;
  std::vector<JoinResult> batch_sink_;  ///< reused per-call result arena
  std::vector<SmallVector<Value, kInlineAttrs>> rows_;
};

}  // namespace

Executor::Executor(const QuerySpec& query, ExecutorOptions options)
    : query_(query), options_(std::move(options)), rt_(options_) {
  const index::CostModel model(options_.model_params);
  stems_.reserve(query_.num_streams());
  std::vector<StemOperator*> stem_ptrs;
  for (StreamId s = 0; s < query_.num_streams(); ++s) {
    stems_.push_back(std::make_unique<StemOperator>(
        s, query_.layout(s), query_.window(), options_.stem, model,
        &rt_.meter, &rt_.memory, options_.telemetry));
    stem_ptrs.push_back(stems_.back().get());
  }
  eddy_ = std::make_unique<EddyRouter>(query_, std::move(stem_ptrs),
                                       options_.eddy, &rt_.meter,
                                       options_.telemetry);
}

RunResult Executor::run(TupleSource& source) {
  SingleQuerySink sink(query_, *eddy_, options_);
  return run_pipeline(options_, rt_, stems_, sink, source);
}

}  // namespace amri::engine
