// Concurrency stress for the sharded state layer, aimed at the tsan
// preset: several prober threads issue fan-out and targeted probes while
// one writer thread churns the window (insert + erase) and periodically
// migrates the index shard by shard. The wrapper's documented contract —
// many probers, one mutator — must hold race-free for >= 10k operations,
// and the aggregate invariants must survive the storm.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "../test_util.hpp"
#include "common/rng.hpp"
#include "index/index_migrator.hpp"
#include "index/sharded_bit_index.hpp"

namespace amri::index {
namespace {

TEST(ShardedStress, ProbesRaceMigrationAndExpiry) {
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kProbers = 3;
  constexpr std::size_t kWriterOps = 12000;
  constexpr std::size_t kWindow = 600;
  const Value kDomain = 50;

  JoinAttributeSet jas({0, 1, 2});
  // Null meter / memory: the cost meter is single-threaded by design, and
  // concurrent probers would race on it — the engine only meters probes
  // issued from its one driver thread.
  ShardedBitIndex idx(jas, IndexConfig({2, 2, 1}), kShards, /*shard_pos=*/0);
  const IndexMigrator migrator;

  // The writer cycles through the pool FIFO, so a tuple is reused only
  // after its erase: probers may read a tuple concurrently with its erase
  // but never with a rewrite of its values.
  testutil::TuplePool tuples(4 * kWindow, 3, static_cast<int>(kDomain), 77);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> probes_run{0};
  std::atomic<std::uint64_t> fanouts_run{0};

  std::vector<std::thread> probers;
  probers.reserve(kProbers);
  for (std::size_t p = 0; p < kProbers; ++p) {
    probers.emplace_back([&, p] {
      Rng rng(1000 + p);
      std::vector<const Tuple*> out;
      while (!stop.load(std::memory_order_acquire)) {
        ProbeKey key;
        // Alternate targeted (shard attr bound) and fan-out probes.
        key.mask = rng.chance(0.5) ? AttrMask{0b001} : AttrMask{0b110};
        for (std::size_t pos = 0; pos < 3; ++pos) {
          key.values.push_back(static_cast<Value>(
              rng.below(static_cast<std::uint64_t>(kDomain))));
        }
        out.clear();
        const ProbeStats stats = idx.probe(key, out);
        EXPECT_EQ(stats.matches, out.size());
        if (idx.target_shard(key) == idx.shard_count()) {
          fanouts_run.fetch_add(1, std::memory_order_relaxed);
        }
        probes_run.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  {
    // Writer (this thread): window churn + periodic shard-by-shard
    // migrations racing the probers.
    const IndexConfig configs[] = {IndexConfig({2, 2, 1}),
                                   IndexConfig({0, 3, 2}),
                                   IndexConfig({4, 0, 1})};
    std::size_t next_config = 1;
    std::size_t head = 0;  // oldest live tuple
    std::size_t tail = 0;  // next tuple to insert
    for (std::size_t op = 0; op < kWriterOps; ++op) {
      idx.insert(tuples.at(tail % tuples.size()));
      tail = (tail + 1) % (2 * tuples.size());
      if ((tail >= head ? tail - head
                        : tail + 2 * tuples.size() - head) > kWindow) {
        idx.erase(tuples.at(head % tuples.size()));
        head = (head + 1) % (2 * tuples.size());
      }
      if (op % 1500 == 1499) {
        idx.migrate_shards(configs[next_config % 3], migrator);
        ++next_config;
      }
    }
    // Keep the state live until the probers have demonstrably raced it.
    while (probes_run.load(std::memory_order_relaxed) < 2000 ||
           fanouts_run.load(std::memory_order_relaxed) < 200) {
      std::this_thread::yield();
    }
    stop.store(true, std::memory_order_release);
  }
  for (auto& t : probers) t.join();

  // The probers must have genuinely exercised both probe routes while the
  // writer was running.
  EXPECT_GT(probes_run.load(), 1000u);
  EXPECT_GT(fanouts_run.load(), 100u);
  idx.check_invariants();
  EXPECT_GT(idx.size(), 0u);
  const ShardBalance balance = idx.balance();
  EXPECT_EQ(balance.sizes.size(), kShards);
}

}  // namespace
}  // namespace amri::index
