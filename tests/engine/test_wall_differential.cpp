// End-to-end differential equivalence for the wall-clock engine mode: a
// run with --engine wall must be observationally identical to the
// cost-metered virtual pipeline — same join-result multiset, same final
// tuner IC per state, same migration counts, and the same modelled insert
// / delete / route counts — across wall batch {1, 64, 256} and shard
// {1, 4} combinations.
//
// What is deliberately NOT compared: the probe-work counters (hashes,
// compares, bucket visits) and the charged-time total. Wall mode inserts
// the whole mixed-stream batch up front and routes it as one partition
// under a per-root sequence horizon (BatchVisibility): a probe can
// therefore scan batch peers that virtual mode would not have stored yet,
// and the horizon discards those matches only *after* the comparisons were
// performed and charged. The join results are identical by construction;
// the probe-work meters legitimately count the extra scans. (Insert,
// delete and route charges have no such channel: the same tuples are
// stored, expired and the same partial results take the same hops.)
//
// Divergence channels are pinned as in the batched differential harness:
// kFixed routing, bursty arrivals so batches actually form, and a window
// offset 25 ms off the burst grid so per-batch expiry never straddles an
// arrival.
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
  std::uint64_t arrivals_filtered = 0;
  std::vector<std::vector<TupleSeq>> results;  ///< sorted member-seq lists
  std::vector<std::string> final_ics;
  std::vector<std::uint64_t> migrations;
  std::uint64_t total_migrations = 0;
  std::uint64_t routes = 0, inserts = 0, deletes = 0;
};

struct Scenario {
  std::string name;
  std::size_t streams = 3;
  std::size_t num_attrs = 2;
  std::size_t tuples = 1600;
  std::size_t burst = 25;  ///< arrivals sharing each timestamp
  std::uint64_t seed = 1;
  Value domain = 6;
  bool with_selection = false;  ///< WHERE filter on stream 0
  assessment::AssessorKind assessor = assessment::AssessorKind::kSria;
  tuner::StatsRetention retention = tuner::StatsRetention::kReset;
  std::uint64_t reassess_every = 150;
  double first_half_s0 = 0.8;
  double second_half_s0 = 0.2;
};

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
    // due the moment the executor reaches it, so wall batches really mix
    // streams (the cross-run batching this harness exists to check).
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

struct RunConfig {
  EngineMode engine = EngineMode::kVirtual;
  std::size_t batch = 1;
  std::size_t shards = 1;
};

Observed run_scenario(const Scenario& sc, const RunConfig& rc) {
  const QuerySpec base_q =
      make_complete_join_query(sc.streams, seconds_to_micros(30.025));
  QuerySpec q = base_q;
  if (sc.with_selection) {
    // Reject one domain value on stream 0 so the drain path does real
    // selection work.
    q.set_selection(0, Selection({FilterPredicate{0, CompareOp::kNe, 2}}));
  }
  ExecutorOptions o;
  const double span = 1.25 * static_cast<double>(sc.tuples / sc.burst);
  o.duration = seconds_to_micros(span + 10);
  o.sample_every = seconds_to_micros(20);
  o.engine = rc.engine;
  o.batch_size = rc.batch;
  o.stem.backend = IndexBackend::kAmri;
  o.stem.shards = rc.shards;
  o.eddy.routing.kind = RoutingPolicyKind::kFixed;
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
  obs.arrivals_filtered = r.arrivals_filtered;
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
  obs.routes = m.routes();
  obs.inserts = m.inserts();
  obs.deletes = m.deletes();
  return obs;
}

void expect_wall_equivalent(const Scenario& sc) {
  const Observed base =
      run_scenario(sc, RunConfig{EngineMode::kVirtual, 1, 1});
  // The scenario must exercise the interesting machinery, not hold
  // vacuously.
  EXPECT_GT(base.outputs, 0u) << sc.name;
  EXPECT_GT(base.total_migrations, 0u) << sc.name;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    // Route/insert/delete counters are compared within one shard count:
    // a targeted probe of a sharded state legitimately behaves differently
    // from the unpartitioned index (see the sharded differential harness),
    // so the wall-vs-virtual baseline is the virtual run at the SAME
    // shard count.
    const Observed& shard_base =
        shards == 1
            ? base
            : run_scenario(sc, RunConfig{EngineMode::kVirtual, 1, shards});
    if (shards != 1) {
      EXPECT_EQ(shard_base.outputs, base.outputs) << sc.name;
      EXPECT_EQ(shard_base.results, base.results) << sc.name;
      EXPECT_EQ(shard_base.final_ics, base.final_ics) << sc.name;
      EXPECT_EQ(shard_base.migrations, base.migrations) << sc.name;
    }
    for (const std::size_t batch :
         {std::size_t{1}, std::size_t{64}, std::size_t{256}}) {
      const Observed got = run_scenario(
          sc, RunConfig{EngineMode::kWall, batch, shards});
      const std::string tag = sc.name + " wall batch=" +
                              std::to_string(batch) +
                              " shards=" + std::to_string(shards);
      EXPECT_EQ(got.outputs, shard_base.outputs) << tag;
      EXPECT_EQ(got.results, shard_base.results) << tag;
      EXPECT_EQ(got.arrivals_filtered, shard_base.arrivals_filtered) << tag;
      EXPECT_EQ(got.final_ics, shard_base.final_ics) << tag;
      EXPECT_EQ(got.migrations, shard_base.migrations) << tag;
      EXPECT_EQ(got.routes, shard_base.routes) << tag;
      EXPECT_EQ(got.inserts, shard_base.inserts) << tag;
      EXPECT_EQ(got.deletes, shard_base.deletes) << tag;
    }
  }
}

TEST(WallDifferential, ThreeStreamDriftSria) {
  Scenario sc;
  sc.name = "wall-three-stream-sria";
  sc.seed = 404;
  sc.retention = tuner::StatsRetention::kKeep;
  expect_wall_equivalent(sc);
}

TEST(WallDifferential, TwoStreamDiaDriftWithSelection) {
  Scenario sc;
  sc.name = "wall-two-stream-dia";
  sc.streams = 2;
  sc.tuples = 1500;
  sc.seed = 505;
  sc.domain = 7;
  sc.with_selection = true;
  sc.assessor = assessment::AssessorKind::kDia;
  sc.retention = tuner::StatsRetention::kReset;
  sc.first_half_s0 = 0.7;
  sc.second_half_s0 = 0.15;
  expect_wall_equivalent(sc);
}

TEST(WallDifferential, ThreeStreamDiaDrift) {
  Scenario sc;
  sc.name = "wall-three-stream-dia";
  sc.tuples = 1500;
  sc.seed = 505;
  sc.domain = 7;
  sc.assessor = assessment::AssessorKind::kDia;
  sc.retention = tuner::StatsRetention::kReset;
  sc.first_half_s0 = 0.7;
  sc.second_half_s0 = 0.15;
  expect_wall_equivalent(sc);
}

// Back-to-back full batches: bursts several times the batch size keep the
// backlog non-empty after every drain, so consecutive wall batches are full
// and mixed-stream, with a WHERE filter rejecting part of every drain.
TEST(WallDifferential, BackToBackFullBatchesWithSelection) {
  Scenario sc;
  sc.name = "wall-back-to-back";
  sc.streams = 2;
  sc.tuples = 4800;
  sc.burst = 300;  // ~5 back-to-back batches of 64 per burst
  sc.seed = 808;
  sc.domain = 7;
  sc.with_selection = true;
  sc.assessor = assessment::AssessorKind::kDia;
  expect_wall_equivalent(sc);
}

}  // namespace
}  // namespace amri::engine
