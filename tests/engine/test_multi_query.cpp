#include "engine/multi_query.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <stdexcept>

#include "../test_util.hpp"
#include "engine/executor.hpp"

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

// Two 2-stream queries over schemas with two attributes each:
//   Q0: S0.a0 == S1.a0     Q1: S0.a1 == S1.a1
std::vector<QuerySpec> two_queries(TimeMicros window) {
  std::vector<Schema> schemas = {Schema("S0", {"x", "y"}),
                                 Schema("S1", {"u", "v"})};
  std::vector<QuerySpec> queries;
  queries.emplace_back(schemas, std::vector<JoinPredicate>{{0, 0, 1, 0}},
                       window);
  queries.emplace_back(schemas, std::vector<JoinPredicate>{{0, 1, 1, 1}},
                       window);
  return queries;
}

ExecutorOptions base_options(IndexBackend backend = IndexBackend::kScan) {
  ExecutorOptions o;
  o.duration = seconds_to_micros(100);
  o.stem.backend = backend;
  return o;
}

/// Zero modelled costs: the virtual clock tracks arrival timestamps only,
/// so runs with different index backends (or query counts) see identical
/// window contents — required for exact-equality comparisons.
ExecutorOptions zero_cost_options(IndexBackend backend = IndexBackend::kScan) {
  ExecutorOptions o = base_options(backend);
  o.costs = CostParams{0, 0, 0, 0, 0, 0};
  return o;
}

TEST(MultiQuery, RejectsEmptyQueryList) {
  EXPECT_THROW(MultiQueryExecutor({}, base_options()), std::invalid_argument);
}

TEST(MultiQuery, RejectsMoreQueriesThanAcceptMaskBits) {
  std::vector<QuerySpec> queries;
  const auto pair = two_queries(seconds_to_micros(50));
  for (std::size_t i = 0; i <= MultiQueryExecutor::kMaxQueries; ++i) {
    queries.push_back(pair[i % 2]);
  }
  EXPECT_THROW(MultiQueryExecutor(queries, base_options()),
               std::invalid_argument);
  queries.pop_back();  // exactly kMaxQueries is fine
  EXPECT_NO_THROW(MultiQueryExecutor(queries, base_options()));
}

TEST(MultiQuery, RejectsMismatchedStreamCounts) {
  auto queries = two_queries(seconds_to_micros(50));
  std::vector<Schema> three = {Schema("S0", {"x", "y"}),
                               Schema("S1", {"u", "v"}),
                               Schema("S2", {"p"})};
  queries.emplace_back(
      three, std::vector<JoinPredicate>{{0, 0, 1, 0}, {1, 1, 2, 0}},
      seconds_to_micros(50));
  EXPECT_THROW(MultiQueryExecutor(queries, base_options()),
               std::invalid_argument);
}

TEST(MultiQuery, RejectsMismatchedWindows) {
  auto queries = two_queries(seconds_to_micros(50));
  queries.push_back(two_queries(seconds_to_micros(20))[0]);
  EXPECT_THROW(MultiQueryExecutor(queries, base_options()),
               std::invalid_argument);
}

TEST(MultiQuery, SharedJasIsUnionOfQueries) {
  MultiQueryExecutor ex(two_queries(seconds_to_micros(50)), base_options());
  // Each query joins on one attribute; the shared state indexes both.
  EXPECT_EQ(ex.shared_jas(0).size(), 2u);
  EXPECT_EQ(ex.shared_jas(1).size(), 2u);
  EXPECT_EQ(ex.num_queries(), 2u);
}

TEST(MultiQuery, PerQueryResultsIndependent) {
  MultiQueryExecutor ex(two_queries(seconds_to_micros(50)), base_options());
  // S0(7, 1), S1(7, 2): Q0 matches (a0: 7==7), Q1 does not (a1: 1!=2).
  ScriptedSource src({mk(0, 1, {7, 1}), mk(1, 2, {7, 2}),
                      // S0(3, 9), S1(4, 9): only Q1 matches.
                      mk(0, 3, {3, 9}), mk(1, 4, {4, 9})});
  const auto r = ex.run(src);
  ASSERT_EQ(r.per_query_outputs.size(), 2u);
  EXPECT_EQ(r.per_query_outputs[0], 1u);
  EXPECT_EQ(r.per_query_outputs[1], 1u);
  EXPECT_EQ(r.combined.outputs, 2u);
}

TEST(MultiQuery, MatchesTwoSingleQueryRuns) {
  // The multi-query totals must equal running each query alone over the
  // same arrivals.
  std::vector<Tuple> arrivals;
  Rng rng(77);
  for (int i = 0; i < 400; ++i) {
    arrivals.push_back(mk(static_cast<StreamId>(rng.below(2)), 0.1 * i,
                          {static_cast<Value>(rng.below(5)),
                           static_cast<Value>(rng.below(5))}));
  }
  const auto queries = two_queries(seconds_to_micros(20));

  std::vector<std::uint64_t> alone;
  for (const QuerySpec& q : queries) {
    ScriptedSource src(arrivals);
    Executor ex(q, zero_cost_options());
    alone.push_back(ex.run(src).outputs);
  }

  ScriptedSource src(arrivals);
  MultiQueryExecutor multi(queries, zero_cost_options());
  const auto r = multi.run(src);
  EXPECT_EQ(r.per_query_outputs[0], alone[0]);
  EXPECT_EQ(r.per_query_outputs[1], alone[1]);
}

TEST(MultiQuery, AmriBackendAgreesWithScan) {
  std::vector<Tuple> arrivals;
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    arrivals.push_back(mk(static_cast<StreamId>(rng.below(2)), 0.05 * i,
                          {static_cast<Value>(rng.below(6)),
                           static_cast<Value>(rng.below(6))}));
  }
  const auto queries = two_queries(seconds_to_micros(10));

  ScriptedSource scan_src(arrivals);
  MultiQueryExecutor scan_ex(queries, zero_cost_options(IndexBackend::kScan));
  const auto scan_r = scan_ex.run(scan_src);

  auto amri_opts = zero_cost_options(IndexBackend::kAmri);
  amri_opts.stem.initial_config = index::IndexConfig({2, 2});
  ScriptedSource amri_src(arrivals);
  MultiQueryExecutor amri_ex(queries, amri_opts);
  const auto amri_r = amri_ex.run(amri_src);

  EXPECT_EQ(scan_r.per_query_outputs, amri_r.per_query_outputs);
}

TEST(MultiQuery, SharedIndexSeesUnionOfAccessPatterns) {
  const auto queries = two_queries(seconds_to_micros(60));
  auto opts = base_options(IndexBackend::kAmri);
  opts.stem.initial_config = index::IndexConfig({2, 2});
  tuner::TunerOptions t;
  t.reassess_every = 100;
  t.theta = 0.05;
  t.optimizer.bit_budget = 6;
  opts.stem.amri_tuner = t;
  MultiQueryExecutor ex(queries, opts);

  std::vector<Tuple> arrivals;
  Rng rng(5);
  for (int i = 0; i < 1500; ++i) {
    arrivals.push_back(mk(static_cast<StreamId>(rng.below(2)), 0.01 * i,
                          {static_cast<Value>(rng.below(8)),
                           static_cast<Value>(rng.below(8))}));
  }
  ScriptedSource src(std::move(arrivals));
  ex.run(src);
  // Both queries generated probes; the shared tuner saw patterns binding
  // attribute 0 (Q0) and attribute 1 (Q1), so the tuned IC keeps bits on
  // both (neither query alone would justify that).
  for (const auto& stem : ex.stems()) {
    const auto* cfg = stem->current_config();
    ASSERT_NE(cfg, nullptr);
    EXPECT_GT(cfg->bits(0), 0) << "stream " << stem->stream();
    EXPECT_GT(cfg->bits(1), 0) << "stream " << stem->stream();
  }
}

TEST(MultiQuery, PerQuerySelections) {
  auto queries = two_queries(seconds_to_micros(50));
  // Q0 only accepts S0 tuples with x >= 5; Q1 accepts everything.
  queries[0].set_selection(0, Selection({{0, CompareOp::kGe, 5}}));
  MultiQueryExecutor ex(queries, base_options());
  ScriptedSource src({mk(0, 1, {3, 9}), mk(1, 2, {3, 9})});
  const auto r = ex.run(src);
  EXPECT_EQ(r.per_query_outputs[0], 0u);  // filtered for Q0
  EXPECT_EQ(r.per_query_outputs[1], 1u);  // joined for Q1
}

// Randomized sweep: N queries over shared streams with random predicates
// and selections; multi-query per-query outputs must equal running each
// query alone (zero-cost runs so window contents coincide).
class MultiQueryRandom : public ::testing::TestWithParam<int> {};

TEST_P(MultiQueryRandom, EqualsIndependentRuns) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 53 + 11);
  const std::size_t n_attrs = 3;
  std::vector<std::string> names;
  for (std::size_t a = 0; a < n_attrs; ++a) {
    names.push_back("a" + std::to_string(a));
  }
  const std::vector<Schema> schemas = {Schema("L", names),
                                       Schema("R", names)};
  const TimeMicros window = seconds_to_micros(5 + rng.below(20));

  const std::size_t n_queries = 2 + rng.below(2);
  std::vector<QuerySpec> queries;
  for (std::size_t qi = 0; qi < n_queries; ++qi) {
    const auto attr = static_cast<AttrId>(rng.below(n_attrs));
    queries.emplace_back(schemas,
                         std::vector<JoinPredicate>{{0, attr, 1, attr}},
                         window);
    if (rng.chance(0.5)) {
      queries.back().set_selection(
          static_cast<StreamId>(rng.below(2)),
          Selection({{static_cast<AttrId>(rng.below(n_attrs)),
                      CompareOp::kGe, static_cast<Value>(rng.below(4))}}));
    }
  }

  std::vector<Tuple> arrivals;
  for (int i = 0; i < 500; ++i) {
    Tuple t;
    t.stream = static_cast<StreamId>(rng.below(2));
    t.ts = seconds_to_micros(0.05 * i);
    t.seq = static_cast<TupleSeq>(i);
    for (std::size_t a = 0; a < n_attrs; ++a) {
      t.values.push_back(static_cast<Value>(rng.below(6)));
    }
    arrivals.push_back(std::move(t));
  }

  std::vector<std::uint64_t> alone;
  for (const QuerySpec& q : queries) {
    ScriptedSource src(arrivals);
    Executor ex(q, zero_cost_options());
    alone.push_back(ex.run(src).outputs);
  }
  ScriptedSource src(arrivals);
  MultiQueryExecutor multi(queries, zero_cost_options(IndexBackend::kAmri));
  const auto r = multi.run(src);
  ASSERT_EQ(r.per_query_outputs.size(), alone.size());
  for (std::size_t qi = 0; qi < alone.size(); ++qi) {
    EXPECT_EQ(r.per_query_outputs[qi], alone[qi])
        << "seed=" << GetParam() << " query=" << qi;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiQueryRandom, ::testing::Range(1, 11));

TEST(MultiQuery, SingleQueryDegeneratesToExecutor) {
  std::vector<Tuple> arrivals;
  Rng rng(11);
  for (int i = 0; i < 300; ++i) {
    arrivals.push_back(mk(static_cast<StreamId>(rng.below(2)), 0.1 * i,
                          {static_cast<Value>(rng.below(4)),
                           static_cast<Value>(rng.below(4))}));
  }
  auto queries = two_queries(seconds_to_micros(15));
  queries.erase(queries.begin() + 1, queries.end());
  ScriptedSource src1(arrivals);
  Executor single(queries[0], zero_cost_options());
  const auto single_r = single.run(src1);
  ScriptedSource src2(arrivals);
  MultiQueryExecutor multi(queries, zero_cost_options());
  const auto multi_r = multi.run(src2);
  EXPECT_EQ(single_r.outputs, multi_r.combined.outputs);
}

}  // namespace
}  // namespace amri::engine
