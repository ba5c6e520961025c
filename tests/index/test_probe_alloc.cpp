// Allocation parity for the batched probe path (regression): probe_batch
// used to materialize the full wildcard-combination vector per group —
// 2^wildcard_bits bucket ids — so a wide-wildcard batch transiently
// allocated memory the equivalent sequence of probe() calls never needed.
// Combos are now materialized only up to kComboMaterializeCap (wider
// groups enumerate lazily), so the batched path's allocations must stay in
// the same league as the unbatched path's.
//
// The same counters check that the exhaustive index optimizer allocates
// nothing per non-improving candidate.
//
// Instrumented with replacement global new/delete that count only while a
// thread-local flag is up; everything outside the `AllocTracker` scopes
// (pool construction, inserts, gtest bookkeeping) is untracked.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "../test_util.hpp"
#include "index/bit_address_index.hpp"
#include "index/index_optimizer.hpp"

namespace {

struct AllocStats {
  bool tracking = false;
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
  std::size_t peak_single = 0;  ///< largest single allocation seen
};
thread_local AllocStats g_alloc;

void note_alloc(std::size_t size) {
  if (!g_alloc.tracking) return;
  ++g_alloc.count;
  g_alloc.bytes += size;
  if (size > g_alloc.peak_single) g_alloc.peak_single = size;
}

}  // namespace

// Replacement allocation functions must live at global scope. Aligned
// overloads are deliberately not replaced: the default ones pair with the
// default aligned deletes, and nothing on the probe path over-aligns.
void* operator new(std::size_t size) {
  note_alloc(size);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  note_alloc(size);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  note_alloc(size);
  return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  note_alloc(size);
  return std::malloc(size != 0 ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace amri::index {
namespace {

/// RAII tracking scope; snapshots counters on entry.
class AllocTracker {
 public:
  AllocTracker() {
    g_alloc = AllocStats{};
    g_alloc.tracking = true;
  }
  ~AllocTracker() { g_alloc.tracking = false; }
  AllocStats stop() {
    g_alloc.tracking = false;
    return g_alloc;
  }
};

TEST(ProbeAlloc, WideWildcardBatchMatchesUnbatchedAllocations) {
  // 12 indexed bits, all wildcard (mask 0): enum_count = 4096, which is
  // wider than kComboMaterializeCap (1024) — the group must take the lazy
  // enumeration path. Fill every one of the 4096 buckets so the
  // enumerate-vs-filter choice (enum_count <= occupied buckets) actually
  // picks enumeration, the regime the old code materialized combos in.
  const JoinAttributeSet jas({0, 1, 2});
  const IndexConfig config({4, 4, 4});
  BitAddressIndex idx(jas, config, BitMapper::hashing(3));
  testutil::TuplePool pool(60000, 3, /*domain=*/1 << 20, /*seed=*/99);
  for (const Tuple* t : pool.pointers()) idx.insert(t);
  ASSERT_EQ(idx.occupancy().occupied, 4096u)
      << "precondition: every bucket occupied, else the strategy flips to "
         "directory filtering and the regression regime is not exercised";

  constexpr std::size_t kBatch = 8;
  std::vector<ProbeKey> keys(kBatch);
  for (auto& key : keys) {
    key.mask = 0;  // full fan-out: 12 wildcard bits
    key.values = {0, 0, 0};
  }

  // Warm-up pass sizes the output vectors so the tracked passes below see
  // only the probe machinery's own allocations, not result growth (which
  // is identical on both paths by the probe_batch contract).
  std::vector<std::vector<const Tuple*>> outs_single(kBatch),
      outs_batched(kBatch);
  std::vector<ProbeStats> stats(kBatch);
  idx.probe_batch(keys.data(), kBatch, outs_single.data(), stats.data());
  for (std::size_t i = 0; i < kBatch; ++i) {
    outs_batched[i].reserve(outs_single[i].size());
    const std::size_t want = outs_single[i].size();
    outs_single[i].clear();
    outs_single[i].reserve(want);
  }

  AllocStats unbatched;
  {
    AllocTracker tracker;
    for (std::size_t i = 0; i < kBatch; ++i) {
      stats[i] = idx.probe(keys[i], outs_single[i]);
    }
    unbatched = tracker.stop();
  }
  AllocStats batched;
  {
    AllocTracker tracker;
    idx.probe_batch(keys.data(), kBatch, outs_batched.data(), stats.data());
    batched = tracker.stop();
  }
  for (std::size_t i = 0; i < kBatch; ++i) {
    ASSERT_EQ(outs_batched[i], outs_single[i]) << "key " << i;
  }

  // The old code's single combos allocation was enum_count * 8 = 32 KiB.
  // The lazy path's largest allocation is batch bookkeeping (group table,
  // hash-map node) — assert it stays an order of magnitude below a full
  // materialization, and that total batched bytes stay in the same league
  // as the unbatched passes rather than scaling with 2^wildcard_bits.
  constexpr std::size_t kFullMaterialization = 4096 * sizeof(BucketId);
  EXPECT_LT(batched.peak_single, kFullMaterialization / 4)
      << "batched probe transiently allocated a combo-vector-sized block";
  EXPECT_LE(batched.bytes, unbatched.bytes + kFullMaterialization / 4)
      << "batched probe allocates far more than the unbatched equivalent";
}

TEST(ProbeAlloc, NarrowWildcardMayMaterializeUnderCap) {
  // 8 wildcard bits (256 combos) is under the cap: materialization is
  // allowed but must be bounded by enum_count, never beyond it.
  const JoinAttributeSet jas({0, 1, 2});
  const IndexConfig config({4, 4, 0});
  BitAddressIndex idx(jas, config, BitMapper::hashing(3));
  testutil::TuplePool pool(4000, 3, /*domain=*/1 << 20, /*seed=*/7);
  for (const Tuple* t : pool.pointers()) idx.insert(t);
  ASSERT_GE(idx.occupancy().occupied, 256u);

  constexpr std::size_t kBatch = 4;
  std::vector<ProbeKey> keys(kBatch);
  for (auto& key : keys) {
    key.mask = 0;
    key.values = {0, 0, 0};
  }
  std::vector<std::vector<const Tuple*>> outs(kBatch);
  std::vector<ProbeStats> stats(kBatch);
  idx.probe_batch(keys.data(), kBatch, outs.data(), stats.data());
  for (std::size_t i = 0; i < kBatch; ++i) {
    outs[i].clear();
    outs[i].reserve(pool.size());
  }

  AllocStats batched;
  {
    AllocTracker tracker;
    idx.probe_batch(keys.data(), kBatch, outs.data(), stats.data());
    batched = tracker.stop();
  }
  EXPECT_LE(batched.peak_single, 256 * sizeof(BucketId) + 64)
      << "under-cap materialization exceeded one combo table";
}

TEST(ProbeAlloc, ExhaustiveOptimizerAllocationsDoNotGrowWithLeaves) {
  // With free compares every bit only adds hashing cost, so the all-zero
  // allocation (the first leaf) is the unique optimum and every later leaf
  // is a non-improving candidate. The search's allocations must then be
  // the same for 28 leaves as for 8008.
  WorkloadParams wp;
  wp.compare_cost = 0.0;
  const CostModel model(wp);
  const std::vector<PatternFrequency> pats = {
      {0b000011, 0.4}, {0b110000, 0.3}, {0b011110, 0.3}};
  const auto measure = [&](int budget) {
    OptimizerOptions opts;
    opts.bit_budget = budget;
    opts.max_bits_per_attr = budget;
    const IndexOptimizer opt(model, opts);
    AllocTracker tracker;
    const OptimizerResult r = opt.optimize(6, pats);
    const AllocStats stats = tracker.stop();
    EXPECT_EQ(r.config, IndexConfig::zero(6));
    return std::make_pair(r.configs_evaluated, stats.count);
  };
  const auto [small_leaves, small_allocs] = measure(2);
  const auto [large_leaves, large_allocs] = measure(10);
  EXPECT_EQ(small_leaves, 28u);    // C(8, 6)
  EXPECT_EQ(large_leaves, 8008u);  // C(16, 6)
  EXPECT_EQ(large_allocs, small_allocs);
}

}  // namespace
}  // namespace amri::index
