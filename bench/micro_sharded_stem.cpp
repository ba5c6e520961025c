// MICRO-SHARDED-STEM — the sharded state layer, measured on real hardware
// with google-benchmark across shard counts (1, 2, 4, 8):
//   * probe churn (the steady state: window rotation + probes that bind
//     the sharding attribute): the shard route acts as a hash partition on
//     that attribute, so a probe touches ~1/N of a 100k-tuple window even
//     when the IC spends its bits elsewhere — a wall-clock win that needs
//     no extra cores;
//   * fan-out probes (sharding attribute unbound): every shard is probed,
//     one after another on the calling thread, so the whole window is
//     compared whatever N is and the cost over N = 1 is the per-shard
//     overhead;
//   * shard-by-shard migration: the total rebuild work is unchanged, but
//     the largest single-shard rebuild shrinks to ~1/N of the window
//     (max_shard_hashes counter).
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "index/index_migrator.hpp"
#include "index/sharded_bit_index.hpp"

namespace {

using namespace amri;
using namespace amri::index;

constexpr std::size_t kWindow = 100000;  ///< stored tuples per benchmark
constexpr std::int64_t kDomain = 50000;

std::vector<std::unique_ptr<Tuple>> make_tuples(std::size_t n,
                                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::unique_ptr<Tuple>> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto t = std::make_unique<Tuple>();
    t->seq = i;
    t->ts = static_cast<TimeMicros>(i);
    for (int a = 0; a < 2; ++a) {
      t->values.push_back(
          static_cast<Value>(rng.below(static_cast<std::uint64_t>(kDomain))));
    }
    out.push_back(std::move(t));
  }
  return out;
}

JoinAttributeSet jas2() { return JoinAttributeSet({0, 1}); }

/// The adversarial-for-the-IC configuration: all index bits on attribute 1,
/// none on the sharding attribute 0. Probes binding only attribute 0 get no
/// help from the IC — pruning can come only from the shard route.
IndexConfig skewed_config() { return IndexConfig({0, 6}); }

ShardedBitIndex make_index(std::size_t shards) {
  return ShardedBitIndex(jas2(), skewed_config(), shards, /*shard_pos=*/0);
}

/// Steady-state probe churn on a full 100k-tuple window: each iteration
/// rotates the window by one tuple (erase oldest, insert next) and runs one
/// probe that binds the sharding attribute. With N shards the probe is
/// answered from one shard (~kWindow / N comparisons) instead of the whole
/// window.
void BM_ShardedStem_ProbeChurn(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  const auto tuples = make_tuples(2 * kWindow, 7);
  ShardedBitIndex idx = make_index(shards);
  for (std::size_t i = 0; i < kWindow; ++i) idx.insert(tuples[i].get());

  Rng rng(11);
  std::size_t oldest = 0;
  std::size_t next = kWindow;
  std::vector<const Tuple*> out;
  std::uint64_t compared = 0;
  for (auto _ : state) {
    idx.erase(tuples[oldest].get());
    oldest = (oldest + 1) % tuples.size();
    idx.insert(tuples[next].get());
    next = (next + 1) % tuples.size();

    ProbeKey key;
    key.mask = 0b01;  // binds the sharding attribute -> one shard
    key.values.push_back(tuples[rng.below(tuples.size())]->at(0));
    key.values.push_back(0);
    out.clear();
    compared += idx.probe(key, out).tuples_compared;
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["tuples_compared_per_probe"] = benchmark::Counter(
      static_cast<double>(compared), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ShardedStem_ProbeChurn)
    ->ArgName("shards")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond);

/// Fan-out probes: the sharding attribute stays unbound, so every shard is
/// probed in turn and the full window is compared regardless of N; the
/// difference from N = 1 is the per-shard lock and merge overhead.
void BM_ShardedStem_FanoutProbe(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  const auto tuples = make_tuples(kWindow, 7);
  ShardedBitIndex idx = make_index(shards);
  for (const auto& t : tuples) idx.insert(t.get());

  Rng rng(13);
  std::vector<const Tuple*> out;
  for (auto _ : state) {
    ProbeKey key;
    key.mask = 0b10;  // sharding attribute unbound -> fan out
    key.values.push_back(0);
    key.values.push_back(tuples[rng.below(tuples.size())]->at(1));
    out.clear();
    benchmark::DoNotOptimize(idx.probe(key, out).matches);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ShardedStem_FanoutProbe)
    ->ArgName("shards")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond);

/// Shard-by-shard reconfiguration of a full window. Total rehash work is
/// IC-migration work as ever; the counter to watch is max_shard_hashes —
/// the largest single-shard rebuild, i.e. the longest pause any concurrent
/// probe can block behind — which shrinks to ~1/N of the total.
void BM_ShardedStem_Migration(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  const auto tuples = make_tuples(kWindow, 7);
  ShardedBitIndex idx = make_index(shards);
  for (const auto& t : tuples) idx.insert(t.get());

  const IndexMigrator migrator;
  const IndexConfig a = skewed_config();
  const IndexConfig b({3, 3});
  bool flip = false;
  std::uint64_t total_hashes = 0;
  std::uint64_t max_shard_hashes = 0;
  for (auto _ : state) {
    const auto report = idx.migrate_shards(flip ? a : b, migrator);
    flip = !flip;
    total_hashes += report.hashes_charged;
    max_shard_hashes = std::max(max_shard_hashes, report.max_shard_hashes);
    benchmark::DoNotOptimize(report.tuples_moved);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kWindow));
  state.counters["total_hashes"] = benchmark::Counter(
      static_cast<double>(total_hashes), benchmark::Counter::kAvgIterations);
  state.counters["max_shard_hashes"] =
      benchmark::Counter(static_cast<double>(max_shard_hashes));
}
BENCHMARK(BM_ShardedStem_Migration)
    ->ArgName("shards")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

AMRI_BENCHMARK_MAIN()
