// Differential equivalence for multi-query shared execution on the unified
// run-loop core (engine/run_loop.hpp):
//
//   * a MultiQueryExecutor over ONE query must be observationally identical
//     to the single-query Executor — same outputs, result multiset, cost
//     charges, routing decisions, per-state tuner outcomes and memory peak
//     — across the full shards × batch-size × engine grid (the sink is the
//     only moving part; the core is shared by construction);
//   * attribute-disjoint queries through the shared states must produce
//     exactly the per-query outputs of N independent single-query runs, on
//     every grid point (sub-array carving, wall visibility and per-query
//     assessor attribution must not leak results across queries);
//   * overlapping-JAS queries must produce the same per-query outputs on
//     every grid point as on the tuple-at-a-time virtual path (batched and
//     wall multi-query routing are new code; arrival-major routing is the
//     reference);
//   * the per-(query, shard) assessment grid must merge into exactly the
//     unpartitioned assessment for the exact kinds (SRIA/DIA) and stay
//     within the documented epsilon for the compressing kinds, and the
//     merged answer must be invariant to how the queries' request
//     substreams interleave — the fixed-merged-assessment decision
//     invariance the shared tuner relies on.
//
// All engine-level comparisons run with zero modelled costs so the virtual
// clock tracks arrival timestamps only and every grid point sees identical
// window contents (the established differential-suite technique).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "../test_util.hpp"
#include "assessment/snapshot.hpp"
#include "common/rng.hpp"
#include "engine/multi_query.hpp"
#include "telemetry/telemetry.hpp"

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

/// One grid point of the feature matrix the unified core must serve.
struct GridPoint {
  std::size_t shards = 1;
  std::size_t batch = 1;
  EngineMode engine = EngineMode::kVirtual;
  std::string label() const {
    return "shards=" + std::to_string(shards) +
           " batch=" + std::to_string(batch) +
           (engine == EngineMode::kWall ? " engine=wall" : " engine=virtual");
  }
};

std::vector<GridPoint> feature_grid() {
  return {{1, 1, EngineMode::kVirtual},
          {1, 4, EngineMode::kVirtual},
          {2, 1, EngineMode::kVirtual},
          {2, 4, EngineMode::kVirtual},
          {1, 4, EngineMode::kWall},
          {2, 4, EngineMode::kWall}};
}

/// Zero modelled costs + deterministic routing + an always-on AMRI tuner:
/// the adaptive machinery runs (assessment, epochs, migrations) without
/// cost-dependent divergence between grid points.
ExecutorOptions grid_options(const GridPoint& gp, std::size_t num_attrs) {
  ExecutorOptions o;
  o.duration = seconds_to_micros(200);
  o.sample_every = seconds_to_micros(50);
  o.costs = CostParams{0, 0, 0, 0, 0, 0};
  o.stem.backend = IndexBackend::kAmri;
  o.stem.shards = gp.shards;
  o.batch_size = gp.batch;
  o.engine = gp.engine;
  o.eddy.routing.kind = RoutingPolicyKind::kFixed;
  tuner::TunerOptions topts;
  topts.reassess_every = 120;
  topts.theta = 0.1;
  topts.optimizer.bit_budget = static_cast<int>(2 * num_attrs);
  topts.optimizer.max_bits_per_attr = 2;
  o.stem.amri_tuner = topts;
  return o;
}

/// `n_queries` two-stream queries over `n_attrs`-wide schemas; query i
/// joins L.a<i> == R.a<i> (disjoint == true) or L.a<i> == R.a<i> plus
/// L.a<i+1> == R.a<i+1> (overlapping JAS between neighbouring queries).
std::vector<QuerySpec> make_queries(std::size_t n_queries, std::size_t n_attrs,
                                    bool disjoint, TimeMicros window) {
  std::vector<std::string> names;
  for (std::size_t a = 0; a < n_attrs; ++a) {
    names.push_back("a" + std::to_string(a));
  }
  const std::vector<Schema> schemas = {Schema("L", names), Schema("R", names)};
  std::vector<QuerySpec> queries;
  for (std::size_t qi = 0; qi < n_queries; ++qi) {
    std::vector<JoinPredicate> preds;
    const auto a0 = static_cast<AttrId>(qi % n_attrs);
    preds.push_back({0, a0, 1, a0});
    if (!disjoint) {
      const auto a1 = static_cast<AttrId>((qi + 1) % n_attrs);
      if (a1 != a0) preds.push_back({0, a1, 1, a1});
    }
    queries.emplace_back(schemas, std::move(preds), window);
  }
  // Distinct per-query selections so admission masks differ per arrival.
  queries[0].set_selection(0, Selection({{0, CompareOp::kGe, 1}}));
  return queries;
}

std::vector<Tuple> make_arrivals(std::size_t count, std::size_t n_attrs,
                                 Value domain, std::uint64_t seed) {
  std::vector<Tuple> arrivals;
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    Tuple t;
    t.stream = static_cast<StreamId>(rng.below(2));
    // 50 ms apart — the zero-cost clock idles to each arrival, so window
    // contents are identical on every grid point.
    t.ts = seconds_to_micros(0.05 * static_cast<double>(i));
    t.seq = static_cast<TupleSeq>(i);
    for (std::size_t a = 0; a < n_attrs; ++a) {
      t.values.push_back(
          static_cast<Value>(rng.below(static_cast<std::uint64_t>(domain))));
    }
    arrivals.push_back(std::move(t));
  }
  return arrivals;
}

/// Canonical join-result multiset: per result, member seqs by stream.
std::vector<std::vector<TupleSeq>> result_multiset(
    std::vector<std::vector<TupleSeq>> results) {
  std::sort(results.begin(), results.end());
  return results;
}

// ---------------------------------------------------------------------------
// MultiQueryExecutor(1 query) ≡ Executor, bit-for-bit, on every grid point.
// ---------------------------------------------------------------------------

TEST(MultiQueryDifferential, SingleQueryMatchesExecutorExactly) {
  const std::size_t n_attrs = 2;
  const auto queries =
      make_queries(1, n_attrs, /*disjoint=*/false, seconds_to_micros(30.025));
  const auto arrivals = make_arrivals(1200, n_attrs, 5, 17);

  for (const GridPoint& gp : feature_grid()) {
    auto run_one = [&](auto&& make_run) {
      std::vector<std::vector<TupleSeq>> results;
      ExecutorOptions o = grid_options(gp, n_attrs);
      o.on_result = [&results](const JoinResult& jr) {
        std::vector<TupleSeq> key;
        key.reserve(jr.members.size());
        for (const Tuple* m : jr.members) key.push_back(m->seq);
        results.push_back(std::move(key));
      };
      RunResult r = make_run(o);
      return std::pair(std::move(r), result_multiset(std::move(results)));
    };

    auto [single, single_results] = run_one([&](ExecutorOptions o) {
      ScriptedSource src(arrivals);
      Executor ex(queries[0], std::move(o));
      return ex.run(src);
    });
    auto [multi, multi_results] = run_one([&](ExecutorOptions o) {
      ScriptedSource src(arrivals);
      MultiQueryExecutor ex(queries, std::move(o));
      MultiRunResult mr = ex.run(src);
      EXPECT_EQ(mr.per_query_outputs.size(), 1u) << gp.label();
      if (!mr.per_query_outputs.empty()) {
        EXPECT_EQ(mr.per_query_outputs[0], mr.combined.outputs) << gp.label();
      }
      return std::move(mr.combined);
    });

    EXPECT_EQ(multi.outputs, single.outputs) << gp.label();
    EXPECT_EQ(multi.arrivals, single.arrivals) << gp.label();
    EXPECT_EQ(multi.arrivals_filtered, single.arrivals_filtered) << gp.label();
    EXPECT_EQ(multi.arrivals_dropped, single.arrivals_dropped) << gp.label();
    EXPECT_DOUBLE_EQ(multi.charged_us, single.charged_us) << gp.label();
    EXPECT_EQ(multi.routing_decisions, single.routing_decisions) << gp.label();
    EXPECT_EQ(multi.peak_memory, single.peak_memory) << gp.label();
    EXPECT_EQ(multi_results, single_results) << gp.label();
    ASSERT_EQ(multi.states.size(), single.states.size()) << gp.label();
    for (std::size_t s = 0; s < single.states.size(); ++s) {
      EXPECT_EQ(multi.states[s].probes, single.states[s].probes)
          << gp.label() << " stream " << s;
      EXPECT_EQ(multi.states[s].migrations, single.states[s].migrations)
          << gp.label() << " stream " << s;
      EXPECT_EQ(multi.states[s].state_bytes, single.states[s].state_bytes)
          << gp.label() << " stream " << s;
      EXPECT_EQ(multi.states[s].final_index, single.states[s].final_index)
          << gp.label() << " stream " << s;
    }
    // Same sample cadence and same cumulative curve.
    ASSERT_EQ(multi.samples.size(), single.samples.size()) << gp.label();
    for (std::size_t i = 0; i < single.samples.size(); ++i) {
      EXPECT_EQ(multi.samples[i].t, single.samples[i].t) << gp.label();
      EXPECT_EQ(multi.samples[i].outputs, single.samples[i].outputs)
          << gp.label();
    }
  }
}

// ---------------------------------------------------------------------------
// Attribute-disjoint queries ≡ N independent single-query runs, per grid
// point.
// ---------------------------------------------------------------------------

TEST(MultiQueryDifferential, DisjointQueriesEqualIndependentRuns) {
  const std::size_t n_attrs = 3;
  const auto queries =
      make_queries(3, n_attrs, /*disjoint=*/true, seconds_to_micros(20.025));
  const auto arrivals = make_arrivals(900, n_attrs, 5, 29);

  for (const GridPoint& gp : feature_grid()) {
    std::vector<std::uint64_t> alone;
    for (const QuerySpec& q : queries) {
      ScriptedSource src(arrivals);
      Executor ex(q, grid_options(gp, n_attrs));
      alone.push_back(ex.run(src).outputs);
    }

    ScriptedSource src(arrivals);
    MultiQueryExecutor multi(queries, grid_options(gp, n_attrs));
    const MultiRunResult r = multi.run(src);
    ASSERT_EQ(r.per_query_outputs.size(), alone.size()) << gp.label();
    std::uint64_t sum = 0;
    for (std::size_t qi = 0; qi < alone.size(); ++qi) {
      EXPECT_EQ(r.per_query_outputs[qi], alone[qi])
          << gp.label() << " query " << qi;
      sum += r.per_query_outputs[qi];
    }
    EXPECT_EQ(r.combined.outputs, sum) << gp.label();
    // Every sample carries the per-query attribution, and the final one is
    // the run total.
    ASSERT_FALSE(r.combined.samples.empty()) << gp.label();
    for (const Sample& s : r.combined.samples) {
      ASSERT_EQ(s.per_query_outputs.size(), alone.size()) << gp.label();
    }
    EXPECT_EQ(r.combined.samples.back().per_query_outputs,
              r.per_query_outputs)
        << gp.label();
  }
}

// ---------------------------------------------------------------------------
// Overlapping-JAS queries: every grid point matches the tuple-at-a-time
// virtual reference.
// ---------------------------------------------------------------------------

TEST(MultiQueryDifferential, OverlappingQueriesGridMatchesTupleAtATime) {
  const std::size_t n_attrs = 3;
  const auto queries =
      make_queries(3, n_attrs, /*disjoint=*/false, seconds_to_micros(15.025));
  const auto arrivals = make_arrivals(900, n_attrs, 4, 41);

  const GridPoint reference{1, 1, EngineMode::kVirtual};
  ScriptedSource ref_src(arrivals);
  MultiQueryExecutor ref_ex(queries, grid_options(reference, n_attrs));
  const MultiRunResult ref = ref_ex.run(ref_src);

  for (const GridPoint& gp : feature_grid()) {
    ScriptedSource src(arrivals);
    MultiQueryExecutor ex(queries, grid_options(gp, n_attrs));
    const MultiRunResult r = ex.run(src);
    EXPECT_EQ(r.per_query_outputs, ref.per_query_outputs) << gp.label();
    EXPECT_EQ(r.combined.outputs, ref.combined.outputs) << gp.label();
  }
}

// ---------------------------------------------------------------------------
// Tuner decisions on the shared state carry per-query attribution, and the
// per-sample per-query deltas reach the telemetry sample events.
// ---------------------------------------------------------------------------

TEST(MultiQueryDifferential, TunerDecisionsCarryPerQueryShares) {
  const std::size_t n_attrs = 3;
  const auto queries =
      make_queries(2, n_attrs, /*disjoint=*/true, seconds_to_micros(30));
  const auto arrivals = make_arrivals(1500, n_attrs, 6, 7);

  telemetry::Telemetry tel;
  ExecutorOptions o = grid_options({1, 1, EngineMode::kVirtual}, n_attrs);
  o.telemetry = &tel;
  MultiQueryExecutor ex(queries, o);
  ScriptedSource src(arrivals);
  const MultiRunResult r = ex.run(src);
  EXPECT_GT(r.combined.outputs, 0u);

  std::size_t decisions_with_shares = 0;
  std::size_t samples_with_per_query = 0;
  for (const telemetry::Event& e : tel.events().snapshot()) {
    if (e.kind == telemetry::EventKind::kTunerDecision &&
        e.payload.find("\"per_query\":[") != std::string::npos &&
        e.payload.find("\"query\":1") != std::string::npos) {
      ++decisions_with_shares;
    }
    if (e.kind == telemetry::EventKind::kSample &&
        e.payload.find("\"per_query\":[") != std::string::npos) {
      ++samples_with_per_query;
    }
  }
  EXPECT_GT(decisions_with_shares, 0u)
      << "no tuner decision carried per-query request shares";
  EXPECT_GT(samples_with_per_query, 0u)
      << "no sample event carried per-query output deltas";
}

// ---------------------------------------------------------------------------
// Per-query assessment-grid merging: the merged answer equals the
// unpartitioned assessment (exact kinds), and is invariant to how the
// queries' substreams interleave (all kinds) — the property behind
// "epoch decisions are identical for a fixed merged assessment".
// ---------------------------------------------------------------------------

struct QueryStream {
  AttrMask universe = 0;
  std::size_t queries = 2;
  std::vector<AttrMask> requests;     ///< in arrival (interleaved) order
  std::vector<std::size_t> owner;     ///< query attribution per request
};

QueryStream make_query_stream(Rng& rng) {
  QueryStream qs;
  const std::size_t attrs = 2 + rng.below(3);
  qs.universe = static_cast<AttrMask>((1u << attrs) - 1);
  qs.queries = 2 + rng.below(3);  // 2..4
  const std::size_t n = 2000 + rng.below(4000);
  // Each query favours its own hot pattern — the multi-query shape: the
  // union workload is diverse even though each substream is skewed.
  std::vector<AttrMask> hot;
  for (std::size_t q = 0; q < qs.queries; ++q) {
    hot.push_back(static_cast<AttrMask>(1 + rng.below(qs.universe)));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t q = rng.below(qs.queries);
    qs.owner.push_back(q);
    qs.requests.push_back(
        rng.chance(0.75) ? hot[q]
                         : static_cast<AttrMask>(1 + rng.below(qs.universe)));
  }
  return qs;
}

/// Feed the interleaved stream into per-query assessors and merge.
assessment::AssessmentSnapshot merged_by_query(
    const QueryStream& qs, assessment::AssessorKind kind,
    const assessment::AssessorParams& params,
    const std::vector<std::size_t>& order) {
  std::vector<std::unique_ptr<assessment::Assessor>> parts;
  for (std::size_t q = 0; q < qs.queries; ++q) {
    parts.push_back(assessment::make_assessor(kind, qs.universe, params));
  }
  for (const std::size_t i : order) {
    parts[qs.owner[i]]->observe(qs.requests[i]);
  }
  std::vector<assessment::AssessmentSnapshot> snaps;
  snaps.reserve(parts.size());
  for (const auto& p : parts) snaps.push_back(p->snapshot());
  return assessment::merge_snapshots(snaps);
}

void expect_identical(const std::vector<assessment::AssessedPattern>& got,
                      const std::vector<assessment::AssessedPattern>& want,
                      std::size_t round, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what << " round " << round;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].mask, want[i].mask) << what << " round " << round;
    EXPECT_EQ(got[i].count, want[i].count) << what << " round " << round;
    EXPECT_DOUBLE_EQ(got[i].frequency, want[i].frequency)
        << what << " round " << round;
  }
}

TEST(MultiQueryAssessmentMerge, ExactKindsEqualUnpartitioned) {
  for (const auto kind :
       {assessment::AssessorKind::kSria, assessment::AssessorKind::kDia}) {
    Rng rng(kind == assessment::AssessorKind::kSria ? 61 : 62);
    for (std::size_t round = 0; round < 20; ++round) {
      const QueryStream qs = make_query_stream(rng);
      auto whole =
          assessment::make_assessor(kind, qs.universe, {});
      for (const AttrMask ap : qs.requests) whole->observe(ap);
      std::vector<std::size_t> order(qs.requests.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      const auto merged = merged_by_query(qs, kind, {}, order);
      EXPECT_EQ(merged.observed, whole->observed()) << "round " << round;
      for (const double theta : {0.05, 0.15, 0.3}) {
        expect_identical(assessment::snapshot_results(merged, theta),
                         whole->results(theta), round, "exact-vs-whole");
      }
    }
  }
}

TEST(MultiQueryAssessmentMerge, MergedAnswerInvariantToInterleaving) {
  // Every kind — including the compressing, order-sensitive CSRIA/CDIA:
  // each query's substream keeps ITS internal order, so the per-query
  // tables (and hence the merged assessment and the tuner decision it
  // feeds) cannot depend on how the queries' requests interleave.
  using assessment::AssessorKind;
  for (const auto kind : {AssessorKind::kSria, AssessorKind::kCsria,
                          AssessorKind::kDia, AssessorKind::kCdiaRandom}) {
    Rng rng(100 + static_cast<std::uint64_t>(kind));
    assessment::AssessorParams params;
    params.epsilon = 0.02;
    for (std::size_t round = 0; round < 10; ++round) {
      const QueryStream qs = make_query_stream(rng);
      // Order A: arrival order. Order B: a different interleaving that
      // preserves each query's substream order — process queries
      // round-robin from per-query FIFO lists.
      std::vector<std::size_t> order_a(qs.requests.size());
      for (std::size_t i = 0; i < order_a.size(); ++i) order_a[i] = i;
      std::vector<std::deque<std::size_t>> fifo(qs.queries);
      for (std::size_t i = 0; i < qs.requests.size(); ++i) {
        fifo[qs.owner[i]].push_back(i);
      }
      std::vector<std::size_t> order_b;
      order_b.reserve(qs.requests.size());
      bool any = true;
      while (any) {
        any = false;
        for (auto& f : fifo) {
          if (f.empty()) continue;
          order_b.push_back(f.front());
          f.pop_front();
          any = true;
        }
      }
      const auto merged_a = merged_by_query(qs, kind, params, order_a);
      const auto merged_b = merged_by_query(qs, kind, params, order_b);
      EXPECT_EQ(merged_a.observed, merged_b.observed) << "round " << round;
      for (const double theta : {0.05, 0.15}) {
        expect_identical(assessment::snapshot_results(merged_a, theta),
                         assessment::snapshot_results(merged_b, theta), round,
                         "interleaving");
      }
    }
  }
}

}  // namespace
}  // namespace amri::engine
