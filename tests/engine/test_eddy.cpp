#include "engine/eddy.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "../test_util.hpp"

namespace amri::engine {
namespace {

index::CostModel model() {
  return index::CostModel(index::WorkloadParams{});
}

StemOptions scan_backend() {
  StemOptions o;
  o.backend = IndexBackend::kScan;
  return o;
}

struct Rig {
  QuerySpec query;
  std::vector<std::unique_ptr<StemOperator>> stems;
  std::unique_ptr<EddyRouter> eddy;

  Rig(std::size_t k, StemOptions stem_opts, EddyOptions eddy_opts = {})
      : query(make_complete_join_query(k, seconds_to_micros(1000))) {
    std::vector<StemOperator*> ptrs;
    for (StreamId s = 0; s < k; ++s) {
      stems.push_back(std::make_unique<StemOperator>(
          s, query.layout(s), query.window(), stem_opts, model()));
      ptrs.push_back(stems.back().get());
    }
    eddy = std::make_unique<EddyRouter>(query, std::move(ptrs), eddy_opts);
  }

  std::uint64_t arrive(StreamId s, TimeMicros ts,
                       std::initializer_list<Value> vals,
                       std::vector<JoinResult>* sink = nullptr) {
    Tuple t = testutil::make_tuple(vals, 0, ts, s);
    const Tuple* stored = stems[s]->insert(t);
    return eddy->route(stored, sink);
  }
};

TEST(EddyRouter, TwoWayJoinProducesPairExactlyOnce) {
  Rig rig(2, scan_backend());
  EXPECT_EQ(rig.arrive(0, 1, {42}), 0u);  // nothing to join yet
  EXPECT_EQ(rig.arrive(1, 2, {42}), 1u);  // matches the stored tuple
  EXPECT_EQ(rig.arrive(1, 3, {41}), 0u);  // no match
  EXPECT_EQ(rig.eddy->results_produced(), 1u);
  EXPECT_EQ(rig.eddy->arrivals_routed(), 3u);
}

TEST(EddyRouter, ThreeWayJoinRequiresAllPredicates) {
  // K3: streams A{j01,j02}, B{j01,j12}, C{j02,j12}.
  Rig rig(3, scan_backend());
  rig.arrive(0, 1, {7, 8});    // A: j01=7, j02=8
  rig.arrive(1, 2, {7, 9});    // B: j01=7, j12=9
  // C must satisfy j02=8 (with A) and j12=9 (with B).
  EXPECT_EQ(rig.arrive(2, 3, {8, 9}), 1u);
  EXPECT_EQ(rig.arrive(2, 4, {8, 1}), 0u);  // violates B-C predicate
  EXPECT_EQ(rig.arrive(2, 5, {1, 9}), 0u);  // violates A-C predicate
}

TEST(EddyRouter, ResultDeliveredToSink) {
  Rig rig(2, scan_backend());
  rig.arrive(0, 1, {5});
  std::vector<JoinResult> sink;
  rig.arrive(1, 2, {5}, &sink);
  ASSERT_EQ(sink.size(), 1u);
  ASSERT_EQ(sink[0].members.size(), 2u);
  EXPECT_EQ(sink[0].members[0]->at(0), 5);
  EXPECT_EQ(sink[0].members[1]->at(0), 5);
}

TEST(EddyRouter, FanOutCountsAllCombinations) {
  Rig rig(2, scan_backend());
  rig.arrive(0, 1, {3});
  rig.arrive(0, 2, {3});
  rig.arrive(0, 3, {3});
  // One B tuple joins all three stored A tuples.
  EXPECT_EQ(rig.arrive(1, 4, {3}), 3u);
}

TEST(EddyRouter, FourWayCompleteJoin) {
  Rig rig(4, scan_backend());
  // One tuple per stream, all predicate values aligned:
  // A{j01,j02,j03}, B{j01,j12,j13}, C{j02,j12,j23}, D{j03,j13,j23}.
  rig.arrive(0, 1, {1, 2, 3});
  rig.arrive(1, 2, {1, 4, 5});
  rig.arrive(2, 3, {2, 4, 6});
  EXPECT_EQ(rig.arrive(3, 4, {3, 5, 6}), 1u);
}

TEST(EddyRouter, RouteOrderDoesNotChangeResults) {
  // Same arrivals under different policies must produce identical counts.
  for (const auto kind : {RoutingPolicyKind::kFixed,
                          RoutingPolicyKind::kCostBased,
                          RoutingPolicyKind::kLottery}) {
    EddyOptions eo;
    eo.routing.kind = kind;
    eo.routing.seed = 99;
    Rig rig(3, scan_backend(), eo);
    Rng rng(1234);
    std::uint64_t results = 0;
    for (int i = 0; i < 300; ++i) {
      const auto s = static_cast<StreamId>(rng.below(3));
      const Value v1 = static_cast<Value>(rng.below(4));
      const Value v2 = static_cast<Value>(rng.below(4));
      results += rig.arrive(s, i, {v1, v2});
    }
    // Reference: recompute with fixed policy on identical input.
    EddyOptions ref_eo;
    ref_eo.routing.kind = RoutingPolicyKind::kFixed;
    Rig ref(3, scan_backend(), ref_eo);
    Rng rng2(1234);
    std::uint64_t ref_results = 0;
    for (int i = 0; i < 300; ++i) {
      const auto s = static_cast<StreamId>(rng2.below(3));
      const Value v1 = static_cast<Value>(rng2.below(4));
      const Value v2 = static_cast<Value>(rng2.below(4));
      ref_results += ref.arrive(s, i, {v1, v2});
    }
    EXPECT_EQ(results, ref_results) << "policy kind "
                                    << static_cast<int>(kind);
  }
}

TEST(EddyRouter, StatisticsRecordedPerStatePattern) {
  Rig rig(3, scan_backend());
  rig.arrive(0, 1, {1, 1});
  rig.arrive(1, 2, {1, 1});
  rig.arrive(2, 3, {1, 1});
  EXPECT_GT(rig.eddy->statistics().size(), 0u);
}

TEST(EddyRouter, TruncationGuardStopsExplosion) {
  EddyOptions eo;
  eo.max_partials_per_arrival = 10;
  Rig rig(2, scan_backend(), eo);
  for (int i = 0; i < 100; ++i) rig.arrive(0, i, {1});
  rig.arrive(1, 200, {1});
  EXPECT_GE(rig.eddy->partials_truncated(), 1u);
  EXPECT_LT(rig.eddy->results_produced(), 100u);
}

TEST(EddyRouter, BatchRoutingPreservesResults) {
  auto run = [](std::size_t batch) {
    EddyOptions eo;
    eo.decision_reuse = batch;
    Rig rig(3, scan_backend(), eo);
    Rng rng(4321);
    std::uint64_t results = 0;
    for (int i = 0; i < 400; ++i) {
      const auto s = static_cast<StreamId>(rng.below(3));
      const Value v1 = static_cast<Value>(rng.below(5));
      const Value v2 = static_cast<Value>(rng.below(5));
      results += rig.arrive(s, i, {v1, v2});
    }
    return results;
  };
  const auto single = run(1);
  EXPECT_EQ(run(8), single);
  EXPECT_EQ(run(64), single);
}

TEST(EddyRouter, BatchRoutingAmortisesDecisionCost) {
  const QuerySpec q = make_complete_join_query(3, seconds_to_micros(1000));
  auto routes_with_batch = [&](std::size_t batch) {
    CostMeter meter;
    StemOptions so;
    so.backend = IndexBackend::kScan;
    std::vector<std::unique_ptr<StemOperator>> stems;
    std::vector<StemOperator*> ptrs;
    for (StreamId s = 0; s < 3; ++s) {
      stems.push_back(std::make_unique<StemOperator>(
          s, q.layout(s), q.window(), so, model()));
      ptrs.push_back(stems.back().get());
    }
    EddyOptions eo;
    eo.decision_reuse = batch;
    EddyRouter eddy(q, std::move(ptrs), eo, &meter);
    for (int i = 0; i < 300; ++i) {
      Tuple t = testutil::make_tuple({1, 1}, 0, i, 0);
      eddy.route(stems[0]->insert(t));
    }
    return meter.routes();
  };
  const auto unbatched = routes_with_batch(1);
  const auto batched = routes_with_batch(10);
  EXPECT_GT(unbatched, 0u);
  EXPECT_LT(batched, unbatched / 4);
}

TEST(EddyRouter, ChargesRoutingDecisions) {
  const QuerySpec q = make_complete_join_query(2, seconds_to_micros(10));
  CostMeter meter;
  StemOperator s0(0, q.layout(0), q.window(), scan_backend(), model());
  StemOperator s1(1, q.layout(1), q.window(), scan_backend(), model());
  EddyRouter eddy(q, {&s0, &s1}, {}, &meter);
  Tuple t = testutil::make_tuple({1}, 0, 1, 0);
  eddy.route(s0.insert(t));
  EXPECT_EQ(meter.routes(), 1u);
}

// A single-query state stores only tuples that passed its WHERE at
// admission, so routing an arrival charges the probe's compares and no
// per-match re-check of the target stream's selection.
TEST(EddyRouter, SingleQueryRouteChargesOnlyTheProbe) {
  QuerySpec q = make_complete_join_query(2, seconds_to_micros(10));
  q.set_selection(0, Selection({{0, CompareOp::kGe, 1},
                                {0, CompareOp::kNe, 99}}));
  CostMeter meter;
  StemOptions so;
  so.backend = IndexBackend::kStaticBitmap;
  so.initial_config = index::IndexConfig({4});
  StemOperator s0(0, q.layout(0), q.window(), so, model(), &meter);
  StemOperator s1(1, q.layout(1), q.window(), so, model(), &meter);
  EddyRouter eddy(q, {&s0, &s1}, {}, &meter);
  TupleSeq seq = 0;
  for (const Value v : {5, 6, 5, 5}) {
    s0.insert(testutil::make_tuple({v}, seq, static_cast<TimeMicros>(seq), 0));
    ++seq;
  }

  const std::uint64_t before = meter.compares();
  EXPECT_EQ(eddy.route(s1.insert(testutil::make_tuple({5}, seq, 9, 1))), 3u);
  const std::uint64_t routed = meter.compares() - before;

  index::ProbeKey key;
  key.mask = 0b1;
  key.values.push_back(5);
  std::vector<const Tuple*> out;
  const index::ProbeStats probe = s0.probe(key, out);
  ASSERT_EQ(probe.matches, 3u);
  EXPECT_EQ(routed, probe.tuples_compared);
}

}  // namespace
}  // namespace amri::engine
