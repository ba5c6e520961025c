// End-to-end differential equivalence for the batched execution pipeline:
// a run with --batch-size > 1 must be observationally identical to the
// tuple-at-a-time run — same join-result multiset, same final tuner IC per
// state, same migration counts, and the same *modelled cost* down to the
// meter's exact operation counters — across batch {1, 16, 256} and shard
// {1, 4} combinations, for every routing policy and assessor.
//
// Batching changes no routing decision: the eddy routes every arrival
// depth first at every batch size, so the policy, its RNG and the tuners
// see the same request sequence. The one channel left is expiry timing.
// Arrivals come in *bursts* of ~25 tuples that share a timestamp, 1.25 s
// apart. Bursts are what make batches actually form (the executor only
// drains arrivals that are already due), and the 25 ms slack between the
// expiry horizon and the burst grid dwarfs the sub-millisecond
// virtual-time skew from expiring once per batch instead of once per
// tuple, so both runs expire identical tuple sets. charged_us is compared
// exactly: the per-operation charge counts are equal, and the integer
// meter sums the same charges to the same total in any order.
//
// Each batch size is compared with batch 1 at the same shard count. Runs
// also match across shard counts only under kFixed routing with an exact,
// additive assessor (SRIA, DIA) and kReset or kKeep retention: a sharded
// state compares fewer tuples per targeted probe, which moves the
// statistics adaptive routing reads, and compressing assessors and kDecay
// truncation are not sharding-invariant (the sharded differential harness
// documents all three), so the other scenarios skip that check.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>
#include <vector>

#include "../test_util.hpp"
#include "common/rng.hpp"
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

struct Observed {
  std::uint64_t outputs = 0;
  std::vector<std::vector<TupleSeq>> results;  ///< sorted member-seq lists
  std::vector<std::string> final_ics;
  std::vector<std::uint64_t> migrations;
  std::uint64_t total_migrations = 0;
  // The six exact meter counters plus the (order-sensitive) charged total.
  std::uint64_t hashes = 0, compares = 0, routes = 0;
  std::uint64_t inserts = 0, deletes = 0, bucket_visits = 0;
  double charged_us = 0.0;
};

struct Scenario {
  std::string name;
  std::size_t streams = 3;
  std::size_t num_attrs = 2;
  std::size_t tuples = 1600;
  std::size_t burst = 25;  ///< arrivals sharing each timestamp
  std::uint64_t seed = 1;
  Value domain = 6;
  RoutingPolicyKind routing = RoutingPolicyKind::kFixed;
  assessment::AssessorKind assessor = assessment::AssessorKind::kSria;
  tuner::StatsRetention retention = tuner::StatsRetention::kReset;
  std::uint64_t reassess_every = 150;
  double first_half_s0 = 0.8;
  double second_half_s0 = 0.2;
};

/// True when routes and merged per-shard assessments do not depend on the
/// shard count, so the scenario's logical observables must also match
/// across shard counts.
bool shard_invariant(const Scenario& sc) {
  const bool exact = sc.assessor == assessment::AssessorKind::kSria ||
                     sc.assessor == assessment::AssessorKind::kDia;
  return sc.routing == RoutingPolicyKind::kFixed && exact &&
         sc.retention != tuner::StatsRetention::kDecay;
}

std::vector<Tuple> make_bursty_arrivals(const Scenario& sc) {
  std::vector<Tuple> tuples;
  Rng rng(sc.seed);
  for (std::size_t i = 0; i < sc.tuples; ++i) {
    Tuple t;
    const double s0_share =
        i < sc.tuples / 2 ? sc.first_half_s0 : sc.second_half_s0;
    t.stream = rng.chance(s0_share)
                   ? 0
                   : static_cast<StreamId>(1 + rng.below(sc.streams - 1));
    // Whole bursts share a timestamp 1.25 s apart: every burst is fully
    // due the moment the executor reaches it, so batch-size > 1 drains
    // real multi-tuple batches (and skewed stream shares give the
    // same-stream runs that insert_batch stores in one call).
    t.ts = seconds_to_micros(1.25 * static_cast<double>(i / sc.burst));
    t.seq = static_cast<TupleSeq>(i);
    for (std::size_t a = 0; a < sc.num_attrs; ++a) {
      t.values.push_back(
          static_cast<Value>(rng.below(static_cast<std::uint64_t>(sc.domain))));
    }
    tuples.push_back(t);
  }
  return tuples;
}

Observed run_scenario(const Scenario& sc, std::size_t batch,
                      std::size_t shards) {
  // 30.025 s: 25 ms past a burst timestamp, so the expiry horizon never
  // sits within the batch's virtual-time cost jitter of an arrival.
  const QuerySpec q =
      make_complete_join_query(sc.streams, seconds_to_micros(30.025));
  ExecutorOptions o;
  const double span = 1.25 * static_cast<double>(sc.tuples / sc.burst);
  o.duration = seconds_to_micros(span + 10);
  o.sample_every = seconds_to_micros(20);
  o.batch_size = batch;
  o.stem.backend = IndexBackend::kAmri;
  o.stem.shards = shards;
  o.eddy.routing.kind = sc.routing;
  tuner::TunerOptions topts;
  topts.assessor = sc.assessor;
  topts.retention = sc.retention;
  topts.theta = 0.1;
  topts.reassess_every = sc.reassess_every;
  topts.optimizer.bit_budget = 4;
  topts.optimizer.max_bits_per_attr = 3;
  o.stem.amri_tuner = topts;

  Observed obs;
  o.on_result = [&obs](const JoinResult& jr) {
    std::vector<TupleSeq> key;
    key.reserve(jr.members.size());
    for (const Tuple* m : jr.members) key.push_back(m->seq);
    obs.results.push_back(std::move(key));
  };

  Executor ex(q, o);
  ScriptedSource src(make_bursty_arrivals(sc));
  const RunResult r = ex.run(src);

  obs.outputs = r.outputs;
  std::sort(obs.results.begin(), obs.results.end());
  for (const StateSummary& s : r.states) {
    obs.migrations.push_back(s.migrations);
    obs.total_migrations += s.migrations;
  }
  for (const auto& stem : ex.stems()) {
    const index::IndexConfig* ic = stem->current_config();
    EXPECT_NE(ic, nullptr);
    obs.final_ics.push_back(ic ? ic->to_string() : "<none>");
    stem->check_invariants();
  }
  const CostMeter& m = ex.meter();
  obs.hashes = m.hashes();
  obs.compares = m.compares();
  obs.routes = m.routes();
  obs.inserts = m.inserts();
  obs.deletes = m.deletes();
  obs.bucket_visits = m.bucket_visits();
  obs.charged_us = m.charged_us();
  return obs;
}

void expect_equivalent(const Scenario& sc) {
  const Observed base = run_scenario(sc, /*batch=*/1, /*shards=*/1);
  // The scenario must exercise the interesting machinery, not hold
  // vacuously: results, mid-run migrations, and real routing work.
  EXPECT_GT(base.outputs, 0u) << sc.name;
  EXPECT_GT(base.total_migrations, 0u) << sc.name;
  EXPECT_GT(base.routes, 0u) << sc.name;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    // Cost counters are compared within one shard count: a targeted probe
    // of a sharded state legitimately compares fewer co-residents than the
    // unpartitioned index (the sharded differential harness documents
    // this), so the batch-vs-tuple-at-a-time cost baseline is the batch=1
    // run at the SAME shard count.
    const Observed& shard_base =
        shards == 1 ? base : run_scenario(sc, /*batch=*/1, shards);
    if (shards != 1 && shard_invariant(sc)) {
      // Logical observables still match across shard counts.
      EXPECT_EQ(shard_base.outputs, base.outputs) << sc.name;
      EXPECT_EQ(shard_base.results, base.results) << sc.name;
      EXPECT_EQ(shard_base.final_ics, base.final_ics) << sc.name;
      EXPECT_EQ(shard_base.migrations, base.migrations) << sc.name;
    }
    for (const std::size_t batch : {std::size_t{16}, std::size_t{256}}) {
      const Observed got = run_scenario(sc, batch, shards);
      const std::string tag =
          sc.name + " batch=" + std::to_string(batch) + " shards=" +
          std::to_string(shards);
      EXPECT_EQ(got.outputs, shard_base.outputs) << tag;
      EXPECT_EQ(got.results, shard_base.results) << tag;
      EXPECT_EQ(got.final_ics, shard_base.final_ics) << tag;
      EXPECT_EQ(got.migrations, shard_base.migrations) << tag;
      EXPECT_EQ(got.routes, shard_base.routes) << tag;
      EXPECT_EQ(got.inserts, shard_base.inserts) << tag;
      EXPECT_EQ(got.deletes, shard_base.deletes) << tag;
      EXPECT_EQ(got.hashes, shard_base.hashes) << tag;
      EXPECT_EQ(got.compares, shard_base.compares) << tag;
      EXPECT_EQ(got.bucket_visits, shard_base.bucket_visits) << tag;
      EXPECT_EQ(got.charged_us, shard_base.charged_us) << tag;
    }
  }
}

TEST(BatchDifferential, ThreeStreamDriftSria) {
  Scenario sc;
  sc.name = "batch-three-stream-sria";
  sc.seed = 404;
  sc.retention = tuner::StatsRetention::kKeep;
  expect_equivalent(sc);
}

/// The DIA drift shape shared by the two- and three-stream DIA cases and
/// the adaptive-routing cases.
Scenario dia_drift(const std::string& name, std::size_t streams) {
  Scenario sc;
  sc.name = name;
  sc.streams = streams;
  sc.tuples = 1500;
  sc.seed = 505;
  sc.domain = 7;
  sc.assessor = assessment::AssessorKind::kDia;
  sc.retention = tuner::StatsRetention::kReset;
  sc.first_half_s0 = 0.7;
  sc.second_half_s0 = 0.15;
  return sc;
}

TEST(BatchDifferential, TwoStreamDiaDrift) {
  expect_equivalent(dia_drift("batch-two-stream-dia", 2));
}

// Three streams with DIA drift lands tuner migrations mid-batch; every
// probe still runs under the same IC as at batch 1.
TEST(BatchDifferential, ThreeStreamDiaDrift) {
  expect_equivalent(dia_drift("batch-three-stream-dia", 3));
}

// Stats-driven routing: the policy reads routing statistics that every
// probe updates, so it decides exactly as at batch 1 only if batching
// keeps each partial's decision and probe order.
TEST(BatchDifferential, ThreeStreamCostBasedDia) {
  Scenario sc = dia_drift("batch-three-stream-cost-based-dia", 3);
  sc.routing = RoutingPolicyKind::kCostBased;
  expect_equivalent(sc);
}

// Stochastic routing: one lottery draw per partial, so the policy RNG
// advances identically at every batch size.
TEST(BatchDifferential, ThreeStreamLotteryCdiaHighestCount) {
  Scenario sc = dia_drift("batch-three-stream-lottery-cdia-hc", 3);
  sc.routing = RoutingPolicyKind::kLottery;
  sc.assessor = assessment::AssessorKind::kCdiaHighestCount;
  expect_equivalent(sc);
}

// A compressing assessor with kDecay's per-entry truncation: both see the
// same single observes in the same order at every batch size.
TEST(BatchDifferential, ThreeStreamCsriaDecay) {
  Scenario sc;
  sc.name = "batch-three-stream-csria-decay";
  sc.seed = 404;
  sc.assessor = assessment::AssessorKind::kCsria;
  sc.retention = tuner::StatsRetention::kDecay;
  expect_equivalent(sc);
}

}  // namespace
}  // namespace amri::engine
