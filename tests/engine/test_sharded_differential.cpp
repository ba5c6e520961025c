// End-to-end differential equivalence: the sharded executor must be
// observationally identical to the single-index executor — same join-result
// multiset, same final tuner IC choice per state, same migration count —
// across shard counts {1, 2, 4, 7}, including mid-run reconfigurations.
//
// The comparison is exact because every divergence channel is pinned:
//   * arrivals are slow relative to the modelled probe cost, so the clock
//     re-synchronises to each arrival timestamp even though the sharded
//     index charges slightly different probe work, and the window length is
//     deliberately NOT a multiple of the arrival spacing — no tuple ever
//     sits within micro-second cost jitter of the expiry horizon, so both
//     runs expire identical tuple sets;
//   * routing is kFixed, so probe statistics cannot alter routes;
//   * the assessors are SRIA / DIA, whose per-shard snapshots merge
//     additively into exactly the unpartitioned assessment — the tuner sees
//     bit-identical frequent-pattern tables and makes bit-identical IC
//     decisions.
//
// A last case checks that sharded executors, single- and multi-query, run
// every shard on the calling thread: the process's thread count during a
// run with fan-out probes equals the count before the executor existed.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

#include "../test_util.hpp"
#include "common/rng.hpp"
#include "engine/executor.hpp"
#include "engine/multi_query.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/adversarial.hpp"

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

/// What a run exposes for equivalence comparison.
struct Observed {
  std::uint64_t outputs = 0;
  /// Canonical join-result multiset: per result, the seq of each member
  /// tuple by stream, the whole list sorted.
  std::vector<std::vector<TupleSeq>> results;
  std::vector<std::string> final_ics;
  std::vector<std::uint64_t> migrations;
  std::uint64_t total_migrations = 0;
};

struct Scenario {
  std::string name;
  std::size_t streams = 2;
  std::size_t num_attrs = 1;     ///< join attributes per tuple
  std::size_t tuples = 1500;
  std::uint64_t seed = 1;
  Value domain = 6;
  assessment::AssessorKind assessor = assessment::AssessorKind::kSria;
  tuner::StatsRetention retention = tuner::StatsRetention::kReset;
  /// Arrival mix drift: fraction of arrivals from stream 0 in the first
  /// half vs the second (shifts each state's access-pattern mix so the
  /// tuner reconfigures mid-run).
  double first_half_s0 = 0.8;
  double second_half_s0 = 0.2;
};

std::vector<Tuple> make_arrivals(const Scenario& sc) {
  std::vector<Tuple> tuples;
  Rng rng(sc.seed);
  for (std::size_t i = 0; i < sc.tuples; ++i) {
    Tuple t;
    const double s0_share =
        i < sc.tuples / 2 ? sc.first_half_s0 : sc.second_half_s0;
    t.stream = rng.chance(s0_share)
                   ? 0
                   : static_cast<StreamId>(1 + rng.below(sc.streams - 1));
    // 50 ms apart: far more virtual time than any probe's modelled cost,
    // so the executor idles to each arrival and expiry horizons align.
    t.ts = seconds_to_micros(0.05 * static_cast<double>(i));
    t.seq = static_cast<TupleSeq>(i);
    for (std::size_t a = 0; a < sc.num_attrs; ++a) {
      t.values.push_back(
          static_cast<Value>(rng.below(static_cast<std::uint64_t>(sc.domain))));
    }
    tuples.push_back(t);
  }
  return tuples;
}

Observed run_scenario(const Scenario& sc, std::size_t shards) {
  // 30.025 s: half an arrival gap past 30 s, so the expiry horizon falls
  // mid-gap between arrival timestamps (see the header comment).
  const QuerySpec q =
      make_complete_join_query(sc.streams, seconds_to_micros(30.025));
  ExecutorOptions o;
  o.duration = seconds_to_micros(0.05 * static_cast<double>(sc.tuples) + 10);
  o.sample_every = seconds_to_micros(20);
  o.stem.backend = IndexBackend::kAmri;
  o.stem.shards = shards;
  o.eddy.routing.kind = RoutingPolicyKind::kFixed;
  tuner::TunerOptions topts;
  topts.assessor = sc.assessor;
  topts.retention = sc.retention;
  topts.theta = 0.1;
  topts.reassess_every = 150;  // several decisions -> mid-run migrations
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
  ScriptedSource src(make_arrivals(sc));
  const RunResult r = ex.run(src);

  obs.outputs = r.outputs;
  std::sort(obs.results.begin(), obs.results.end());
  for (const StateSummary& s : r.states) {
    obs.migrations.push_back(s.migrations);
    obs.total_migrations += s.migrations;
    EXPECT_EQ(s.shards, shards == 0 ? 1 : shards);
  }
  // Compare the tuner's final IC choice itself, not the backend name (the
  // sharded backend's name carries an "xN" shard-count suffix).
  for (const auto& stem : ex.stems()) {
    const index::IndexConfig* ic = stem->current_config();
    EXPECT_NE(ic, nullptr);
    obs.final_ics.push_back(ic ? ic->to_string() : "<none>");
    stem->check_invariants();
  }
  return obs;
}

void expect_equivalent(const Scenario& sc) {
  const Observed base = run_scenario(sc, /*shards=*/1);
  // The scenario must actually exercise mid-run reconfiguration, otherwise
  // equivalence would hold vacuously.
  EXPECT_GT(base.total_migrations, 0u) << sc.name;
  EXPECT_GT(base.outputs, 0u) << sc.name;
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4},
                                   std::size_t{7}}) {
    const Observed got = run_scenario(sc, shards);
    EXPECT_EQ(got.outputs, base.outputs) << sc.name << " x" << shards;
    EXPECT_EQ(got.results, base.results) << sc.name << " x" << shards;
    EXPECT_EQ(got.final_ics, base.final_ics) << sc.name << " x" << shards;
    EXPECT_EQ(got.migrations, base.migrations) << sc.name << " x" << shards;
  }
}

TEST(ShardedDifferential, TwoStreamJoinSria) {
  Scenario sc;
  sc.name = "two-stream-sria";
  sc.streams = 2;
  sc.num_attrs = 1;
  sc.seed = 101;
  expect_equivalent(sc);
}

TEST(ShardedDifferential, ThreeStreamDriftSria) {
  Scenario sc;
  sc.name = "three-stream-drift-sria";
  sc.streams = 3;
  sc.num_attrs = 2;
  sc.tuples = 1800;
  sc.seed = 202;
  sc.domain = 5;
  sc.retention = tuner::StatsRetention::kKeep;
  expect_equivalent(sc);
}

// Note kReset / kKeep retention only: kDecay truncates counts per entry,
// so decaying N shard tables is not bit-identical to decaying the merged
// table (off by < N per entry) — documented in docs/architecture.md.
TEST(ShardedDifferential, ThreeStreamDiaDrift) {
  Scenario sc;
  sc.name = "three-stream-dia-drift";
  sc.streams = 3;
  sc.num_attrs = 2;
  sc.tuples = 1600;
  sc.seed = 303;
  sc.domain = 7;
  sc.assessor = assessment::AssessorKind::kDia;
  sc.retention = tuner::StatsRetention::kReset;
  sc.first_half_s0 = 0.7;
  sc.second_half_s0 = 0.15;
  expect_equivalent(sc);
}

/// Threads of this process (the entries of /proc/self/task), or nullopt
/// when the directory cannot be read.
std::optional<std::size_t> thread_count() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  std::size_t n = 0;
  for (; !ec && it != std::filesystem::directory_iterator();
       it.increment(ec)) {
    ++n;
  }
  if (ec) return std::nullopt;
  return n;
}

/// Options for a 4-shard run at batch 64 that asks for 3 fan-out threads.
/// Modelled costs are scaled up so that arrivals back up and real batches
/// form. `most_threads` tracks the largest thread count seen by any
/// result callback.
ExecutorOptions sharded_options(ExecutorOptions o, telemetry::Telemetry& tel,
                                std::size_t& most_threads) {
  o.duration = seconds_to_micros(8.0);
  o.batch_size = 64;
  o.stem.shards = 4;
  o.fanout_threads = 3;
  o.costs.hash_cost_us *= 400.0;
  o.costs.compare_cost_us *= 400.0;
  o.costs.route_cost_us *= 400.0;
  o.costs.bucket_visit_cost_us *= 400.0;
  o.telemetry = &tel;
  o.on_result = [&most_threads](const JoinResult&) {
    most_threads = std::max(most_threads, thread_count().value_or(0));
  };
  return o;
}

/// True when some probe of the run fanned out: `*.probe.fanout_shards`
/// observes 1 for a targeted probe and the shard count for a fan-out.
bool saw_fanout(const telemetry::Telemetry& tel) {
  for (const auto& [name, h] : tel.metrics().histograms()) {
    if (name.ends_with(".probe.fanout_shards") &&
        h.sum() > static_cast<double>(h.count())) {
      return true;
    }
  }
  return false;
}

TEST(ShardedDifferential, ShardsRunOnTheCallingThread) {
  const std::optional<std::size_t> before = thread_count();
  if (!before.has_value()) GTEST_SKIP() << "/proc/self/task is unreadable";

  workload::AdversarialOptions a;
  a.rate_per_sec = 40.0;
  a.seed = 31;
  {
    const auto sc = workload::AdversarialScenario::make("rotating_hot_set", a);
    telemetry::Telemetry tel;
    std::size_t most_threads = 0;
    Executor ex(sc->query(),
                sharded_options(sc->executor_options(), tel, most_threads));
    const auto src = sc->make_source();
    const RunResult r = ex.run(*src);
    EXPECT_GT(r.outputs, 0u);
    EXPECT_TRUE(saw_fanout(tel));
    EXPECT_EQ(most_threads, *before);
  }
  {
    const auto sc = workload::AdversarialScenario::make("multi_query", a);
    telemetry::Telemetry tel;
    std::size_t most_threads = 0;
    MultiQueryExecutor ex(
        sc->queries(),
        sharded_options(sc->executor_options(), tel, most_threads));
    const auto src = sc->make_source();
    const MultiRunResult r = ex.run(*src);
    EXPECT_GT(r.combined.outputs, 0u);
    EXPECT_TRUE(saw_fanout(tel));
    EXPECT_EQ(most_threads, *before);
  }
}

}  // namespace
}  // namespace amri::engine
