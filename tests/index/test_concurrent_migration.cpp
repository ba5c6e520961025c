// Concurrent-migration tests: several threads drive migrations, mostly
// against a shared Telemetry instance (and, in one case, a shared
// migrator). These exercise the mutex-guarded faces of IndexMigrator,
// MetricsRegistry, and EventLog; run them under the debug-tsan preset to
// validate the locking.
#include "index/index_migrator.hpp"

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "../test_util.hpp"
#include "telemetry/telemetry.hpp"

namespace amri::index {
namespace {

JoinAttributeSet jas3() { return JoinAttributeSet({0, 1, 2}); }

constexpr std::size_t kThreads = 4;
constexpr std::size_t kTuplesPerIndex = 400;

TEST(ConcurrentMigration, PerStreamMigratorsSharedTelemetry) {
  telemetry::Telemetry telemetry;
  std::vector<std::unique_ptr<BitAddressIndex>> indexes;
  std::vector<std::unique_ptr<IndexMigrator>> migrators;
  std::vector<testutil::TuplePool> pools;
  pools.reserve(kThreads);
  for (std::size_t s = 0; s < kThreads; ++s) {
    indexes.push_back(std::make_unique<BitAddressIndex>(
        jas3(), IndexConfig({6, 0, 0}), BitMapper::hashing(3)));
    migrators.push_back(std::make_unique<IndexMigrator>(
        &telemetry, static_cast<StreamId>(s)));
    pools.emplace_back(kTuplesPerIndex, 3, 40, 100 + s);
    for (const Tuple* t : pools.back().pointers()) indexes[s]->insert(t);
  }

  const std::vector<IndexConfig> steps = {
      IndexConfig({2, 2, 2}), IndexConfig({0, 6, 0}), IndexConfig({3, 0, 3}),
      IndexConfig({4, 4, 0})};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t s = 0; s < kThreads; ++s) {
    threads.emplace_back([&, s] {
      for (const IndexConfig& target : steps) {
        const auto report = migrators[s]->migrate(*indexes[s], target);
        EXPECT_EQ(report.tuples_moved, kTuplesPerIndex);
      }
    });
  }
  for (auto& t : threads) t.join();

  for (std::size_t s = 0; s < kThreads; ++s) {
    EXPECT_EQ(indexes[s]->config(), steps.back());
    EXPECT_EQ(indexes[s]->size(), kTuplesPerIndex);
    indexes[s]->check_invariants();
    // Per-stream counters saw every migration exactly once.
    const std::string prefix = "stem." + std::to_string(s);
    EXPECT_EQ(
        telemetry.metrics().counter(prefix + ".migration.count").value(),
        steps.size());
    EXPECT_EQ(telemetry.metrics()
                  .counter(prefix + ".migration.tuples_moved")
                  .value(),
              steps.size() * kTuplesPerIndex);
  }
  // Each migration emits a start and an end event into the shared log.
  EXPECT_EQ(telemetry.events().total_emitted(), kThreads * steps.size() * 2);
}

TEST(ConcurrentMigration, SharedMigratorSerializesRebuilds) {
  telemetry::Telemetry telemetry;
  const IndexMigrator migrator(&telemetry, 0);
  std::vector<std::unique_ptr<BitAddressIndex>> indexes;
  std::vector<testutil::TuplePool> pools;
  std::vector<std::set<const Tuple*>> expected(kThreads);
  pools.reserve(kThreads);
  for (std::size_t s = 0; s < kThreads; ++s) {
    indexes.push_back(std::make_unique<BitAddressIndex>(
        jas3(), IndexConfig({4, 4, 0}), BitMapper::hashing(3)));
    pools.emplace_back(kTuplesPerIndex, 3, 25, 200 + s);
    for (const Tuple* t : pools.back().pointers()) {
      indexes[s]->insert(t);
      expected[s].insert(t);
    }
  }

  // All threads funnel through ONE migrator; its per-instance mutex must
  // serialize whole rebuilds (index mutation + telemetry emission).
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < kThreads; ++s) {
    threads.emplace_back([&, s] {
      migrator.migrate(*indexes[s], IndexConfig({2, 2, 2}));
      migrator.migrate(*indexes[s], IndexConfig({0, 4, 4}));
    });
  }
  for (auto& t : threads) t.join();

  for (std::size_t s = 0; s < kThreads; ++s) {
    EXPECT_EQ(indexes[s]->config(), IndexConfig({0, 4, 4}));
    indexes[s]->check_invariants();
    std::set<const Tuple*> found;
    indexes[s]->for_each_tuple([&](const Tuple* t) { found.insert(t); });
    EXPECT_EQ(found, expected[s]);
  }
  EXPECT_EQ(
      telemetry.metrics().counter("stem.0.migration.count").value(),
      kThreads * 2);
}

TEST(ConcurrentMigration, ParallelDetachedMigrations) {
  // Detached migrators (no telemetry), one per index, rebuilding on
  // parallel threads: each rebuild must stay confined to its own index.
  std::vector<std::unique_ptr<BitAddressIndex>> indexes;
  std::vector<std::unique_ptr<IndexMigrator>> migrators;
  std::vector<testutil::TuplePool> pools;
  for (std::size_t s = 0; s < kThreads; ++s) {
    indexes.push_back(std::make_unique<BitAddressIndex>(
        jas3(), IndexConfig({6, 0, 0}), BitMapper::hashing(3)));
    migrators.push_back(std::make_unique<IndexMigrator>());
    pools.emplace_back(kTuplesPerIndex, 3, 40, 300 + s);
    for (const Tuple* t : pools.back().pointers()) indexes[s]->insert(t);
  }
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < kThreads; ++s) {
    threads.emplace_back(
        [&, s] { migrators[s]->migrate(*indexes[s], IndexConfig({2, 2, 2})); });
  }
  for (auto& t : threads) t.join();
  for (std::size_t s = 0; s < kThreads; ++s) {
    EXPECT_EQ(indexes[s]->config(), IndexConfig({2, 2, 2}));
    EXPECT_EQ(indexes[s]->size(), kTuplesPerIndex);
    indexes[s]->check_invariants();
  }
}

}  // namespace
}  // namespace amri::index
