// End-to-end SPJ behaviour through the executor: WHERE selections filter
// at ingest, SELECT projections shape collected rows.
#include <gtest/gtest.h>

#include <deque>

#include "../test_util.hpp"
#include "engine/executor.hpp"
#include "engine/multi_query.hpp"

namespace amri::engine {
namespace {

class ScriptedSource final : public TupleSource {
 public:
  explicit ScriptedSource(std::vector<Tuple> tuples)
      : tuples_(tuples.begin(), tuples.end()) {}
  std::optional<Tuple> next() override {
    if (tuples_.empty()) return std::nullopt;
    Tuple t = tuples_.front();
    tuples_.pop_front();
    return t;
  }

 private:
  std::deque<Tuple> tuples_;
};

Tuple mk(StreamId s, double ts_sec, std::initializer_list<Value> vals) {
  return testutil::make_tuple(vals, 0, seconds_to_micros(ts_sec), s);
}

ExecutorOptions scan_options() {
  ExecutorOptions o;
  o.duration = seconds_to_micros(100);
  o.stem.backend = IndexBackend::kScan;
  return o;
}

TEST(SpjExecutor, SelectionFiltersBeforeJoin) {
  QuerySpec q = make_complete_join_query(2, seconds_to_micros(50));
  // Stream 0 has attributes {j01}; require j01 >= 10.
  q.set_selection(0, Selection({{0, CompareOp::kGe, 10}}));
  ScriptedSource src({mk(0, 1, {5}), mk(1, 2, {5}),     // filtered: no join
                      mk(0, 3, {12}), mk(1, 4, {12})});  // passes: joins
  Executor ex(q, scan_options());
  const auto r = ex.run(src);
  EXPECT_EQ(r.outputs, 1u);
  EXPECT_EQ(r.arrivals_filtered, 1u);
  EXPECT_EQ(r.arrivals, 3u);  // the filtered tuple is not processed further
}

TEST(SpjExecutor, FilteredTuplesNotStored) {
  QuerySpec q = make_complete_join_query(2, seconds_to_micros(50));
  q.set_selection(1, Selection({{0, CompareOp::kLt, 0}}));  // rejects all
  ScriptedSource src({mk(1, 1, {7}), mk(1, 2, {8}), mk(0, 3, {7})});
  Executor ex(q, scan_options());
  const auto r = ex.run(src);
  EXPECT_EQ(r.outputs, 0u);
  EXPECT_EQ(ex.stems()[1]->stored_tuples(), 0u);
  EXPECT_EQ(r.arrivals_filtered, 2u);
}

TEST(SpjExecutor, CollectedRowsUseProjection) {
  QuerySpec q = make_complete_join_query(2, seconds_to_micros(50));
  // K2 schemas: stream0{j01}, stream1{j01}; project only stream 1's attr.
  q.set_projection(Projection({{1, 0}}));
  ScriptedSource src({mk(0, 1, {42}), mk(1, 2, {42})});
  ExecutorOptions o = scan_options();
  o.collect_rows = true;
  Executor ex(q, o);
  const auto r = ex.run(src);
  ASSERT_EQ(r.rows.size(), 1u);
  ASSERT_EQ(r.rows[0].size(), 1u);
  EXPECT_EQ(r.rows[0][0], 42);
}

TEST(SpjExecutor, SelectStarRowsConcatenate) {
  QuerySpec q = make_complete_join_query(2, seconds_to_micros(50));
  ScriptedSource src({mk(0, 1, {9}), mk(1, 2, {9})});
  ExecutorOptions o = scan_options();
  o.collect_rows = true;
  Executor ex(q, o);
  const auto r = ex.run(src);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].size(), 2u);  // one attr per stream
}

TEST(SpjExecutor, RowCollectionCapped) {
  QuerySpec q = make_complete_join_query(2, seconds_to_micros(500));
  std::vector<Tuple> tuples;
  for (int i = 0; i < 40; ++i) {
    tuples.push_back(mk(i % 2 == 0 ? 0 : 1, i + 1.0, {1}));
  }
  ScriptedSource src(std::move(tuples));
  ExecutorOptions o = scan_options();
  o.duration = seconds_to_micros(1000);
  o.collect_rows = true;
  o.max_collected_rows = 5;
  Executor ex(q, o);
  const auto r = ex.run(src);
  EXPECT_EQ(r.rows.size(), 5u);
  EXPECT_GT(r.outputs, 5u);  // counting continues past the cap
}

TEST(SpjExecutor, SelectionCostCharged) {
  QuerySpec q = make_complete_join_query(2, seconds_to_micros(50));
  q.set_selection(0, Selection({{0, CompareOp::kGe, 0}}));
  ScriptedSource src({mk(0, 1, {1})});
  ExecutorOptions o = scan_options();
  o.costs.compare_cost_us = 100.0;
  Executor ex(q, o);
  ex.run(src);
  EXPECT_GE(ex.clock().now(), 100);
}

// Two queries share the states, so a stored tuple may have been admitted
// for the other query only: each eddy re-checks its own WHERE on matches,
// rejects such tuples and charges the re-check's compares.
TEST(SpjExecutor, SharedStatesRecheckSelectionAndChargeIt) {
  const std::vector<Schema> schemas = {Schema("L", {"x"}), Schema("R", {"u"})};
  std::vector<QuerySpec> queries;
  for (int i = 0; i < 2; ++i) {
    queries.emplace_back(schemas, std::vector<JoinPredicate>{{0, 0, 1, 0}},
                         seconds_to_micros(50));
  }
  // Q0 admits L tuples with x >= 10 only; Q1 admits every tuple.
  queries[0].set_selection(0, Selection({{0, CompareOp::kGe, 10}}));
  MultiQueryExecutor ex(queries, scan_options());
  ScriptedSource src({mk(0, 1, {5}), mk(0, 2, {12}),     // L{5}: Q1 only
                      mk(1, 3, {5}), mk(1, 4, {12})});
  const auto r = ex.run(src);
  EXPECT_EQ(r.per_query_outputs[0], 1u);  // L{5} matched but re-rejected
  EXPECT_EQ(r.per_query_outputs[1], 2u);
  // Compares: Q0's admission of both L arrivals (2), the scans of the two
  // stored L tuples by both queries for both R arrivals (8; the R state is
  // empty while L arrives), and Q0's re-check of one match per R arrival
  // (2).
  EXPECT_EQ(ex.meter().compares(), 12u);
}

}  // namespace
}  // namespace amri::engine
