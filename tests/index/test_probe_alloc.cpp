// Allocation checks on the probe, routing and optimizer hot paths. Once a
// warm-up probe has sized the output vector, BitAddressIndex::probe
// allocates nothing on any of its three strategies (a fully bound probe's
// one bucket, wildcard enumeration, directory filtering): wildcard bucket
// ids come from stepping through subsets of the free bits, and the value
// signature is two words. Once a first route has sized its arenas,
// EddyRouter::route allocates nothing per partial, also when the probed
// state's JAS is wider than kInlineAttrs. The exhaustive index optimizer
// allocates nothing per non-improving candidate.
//
// Instrumented with replacement global new/delete that count only while a
// thread-local flag is up; everything outside the `AllocTracker` scopes
// (pool construction, inserts, gtest bookkeeping) is untracked.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "../test_util.hpp"
#include "common/cost_meter.hpp"
#include "engine/eddy.hpp"
#include "index/bit_address_index.hpp"
#include "index/index_optimizer.hpp"
#include "telemetry/telemetry.hpp"

namespace {

struct AllocStats {
  bool tracking = false;
  std::uint64_t count = 0;
};
thread_local AllocStats g_alloc;

void note_alloc() {
  if (g_alloc.tracking) ++g_alloc.count;
}

}  // namespace

// Replacement allocation functions must live at global scope. Aligned
// overloads are deliberately not replaced: the default ones pair with the
// default aligned deletes, and nothing on the probe path over-aligns.
void* operator new(std::size_t size) {
  note_alloc();
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  note_alloc();
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  note_alloc();
  return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  note_alloc();
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

TEST(ProbeAlloc, ProbeAllocatesNothingOnAnyStrategy) {
  const JoinAttributeSet jas({0, 1, 2});
  const IndexConfig config({4, 4, 4});  // 12 indexed bits
  CostMeter meter;
  telemetry::Telemetry tel;
  // Dense: every one of the 4096 bucket ids is occupied, so a probe with
  // all 12 bits wildcard (enum_count 4096 <= occupied) enumerates.
  BitAddressIndex dense(jas, config, &meter);
  dense.bind_telemetry(&tel, "dense");
  testutil::TuplePool dense_pool(60000, 3, /*domain=*/1 << 20, /*seed=*/99);
  for (const Tuple* t : dense_pool.pointers()) dense.insert(t);
  ASSERT_EQ(dense.occupancy().occupied, 4096u)
      << "precondition: every bucket occupied, else the wildcard probe "
         "filters instead of enumerating";
  // Sparse: at most 100 occupied buckets, so the same probe filters.
  BitAddressIndex sparse(jas, config, &meter);
  sparse.bind_telemetry(&tel, "sparse");
  testutil::TuplePool sparse_pool(100, 3, /*domain=*/1 << 20, /*seed=*/7);
  for (const Tuple* t : sparse_pool.pointers()) sparse.insert(t);

  const Tuple& first = *dense_pool.at(0);
  ProbeKey bound;  // every JAS attribute bound: one bucket
  bound.mask = 0b111;
  bound.values = {first.at(0), first.at(1), first.at(2)};
  ProbeKey wildcard;  // nothing bound: 12 wildcard bits
  wildcard.mask = 0;
  wildcard.values = {0, 0, 0};

  // Allocations of one probe after a warm-up probe has sized `out`.
  const auto tracked_allocs = [](BitAddressIndex& idx, const ProbeKey& key) {
    std::vector<const Tuple*> out;
    idx.probe(key, out);
    const std::size_t warm_matches = out.size();
    out.clear();
    ProbeStats stats;
    AllocStats allocs;
    {
      AllocTracker tracker;
      stats = idx.probe(key, out);
      allocs = tracker.stop();
    }
    EXPECT_GT(stats.matches, 0u);
    EXPECT_EQ(stats.matches, warm_matches);
    return allocs.count;
  };
  EXPECT_EQ(tracked_allocs(dense, bound), 0u) << "fully bound probe";
  EXPECT_EQ(tracked_allocs(dense, wildcard), 0u) << "wildcard enumeration";
  EXPECT_EQ(tracked_allocs(sparse, wildcard), 0u) << "directory filtering";

  // Each case took the strategy it names (a fully bound probe counts as
  // enumerated: enum_count 1 <= occupied).
  const auto counter = [&tel](const char* name) {
    return tel.metrics().find_counter(name)->value();
  };
  EXPECT_EQ(counter("dense.probe.enumerated"), 4u);
  EXPECT_EQ(counter("dense.probe.filtered"), 0u);
  EXPECT_EQ(counter("sparse.probe.enumerated"), 0u);
  EXPECT_EQ(counter("sparse.probe.filtered"), 2u);
}

/// Inserts `per_stream` tuples carrying `values` into every stream's static
/// bit-address state, round-robin so the last one lands in the last stream,
/// and routes that last arrival twice. The first route sizes the stack, the
/// candidate list, the probe key, every probe scratch arena, the result sink
/// and the routing-statistics table; both routes must produce `results`
/// complete results. Returns the allocations of the second route. Static
/// states drop their tuner at finish_warmup(), so probes feed no assessor.
std::uint64_t warm_route_allocations(const engine::QuerySpec& q,
                                     const IndexConfig& config,
                                     std::initializer_list<Value> values,
                                     int per_stream, std::uint64_t results) {
  engine::StemOptions so;
  so.backend = engine::IndexBackend::kStaticBitmap;
  so.initial_config = config;
  const auto k = static_cast<int>(q.num_streams());
  std::vector<std::unique_ptr<engine::StemOperator>> stems;
  std::vector<engine::StemOperator*> ptrs;
  for (StreamId s = 0; s < q.num_streams(); ++s) {
    stems.push_back(std::make_unique<engine::StemOperator>(
        s, q.layout(s), q.window(), so, CostModel(WorkloadParams{})));
    stems.back()->finish_warmup();
    ptrs.push_back(stems.back().get());
  }
  CostMeter meter;
  engine::EddyOptions eo;
  eo.routing.kind = engine::RoutingPolicyKind::kFixed;
  engine::EddyRouter eddy(q, std::move(ptrs), eo, &meter);
  const Tuple* arrival = nullptr;
  for (int i = 0; i < per_stream * k; ++i) {
    const auto s = static_cast<StreamId>(i % k);
    arrival = stems[s]->insert(testutil::make_tuple(values, i, i + 1, s));
  }
  EXPECT_EQ(arrival->stream, static_cast<StreamId>(k - 1));

  std::vector<engine::JoinResult> sink;
  EXPECT_EQ(eddy.route(arrival, &sink), results);
  sink.clear();
  AllocStats allocs;
  std::uint64_t produced = 0;
  {
    AllocTracker tracker;
    produced = eddy.route(arrival, &sink);
    allocs = tracker.stop();
  }
  EXPECT_EQ(produced, results);
  return allocs.count;
}

TEST(ProbeAlloc, EddyRouteAllocatesNothingOnceWarm) {
  // Three streams whose tuples all join: a stream-2 arrival expands into
  // 1 + 20 + 400 partials.
  const engine::QuerySpec complete =
      engine::make_complete_join_query(3, seconds_to_micros(1000));
  EXPECT_EQ(warm_route_allocations(complete, IndexConfig({2, 2}), {0, 0},
                                   /*per_stream=*/20, /*results=*/400),
            0u)
      << "3-stream complete join";

  // Two streams joined on 9 attributes: the probed state's JAS is wider
  // than kInlineAttrs, so a probe key built per hop would spill its values
  // to the heap on every probe.
  std::vector<std::string> names;
  std::vector<engine::JoinPredicate> preds;
  for (AttrId a = 0; a < 9; ++a) {
    names.push_back("a" + std::to_string(a));
    preds.push_back(engine::JoinPredicate{0, a, 1, a});
  }
  const engine::QuerySpec wide({Schema("R", names), Schema("S", names)},
                               preds, seconds_to_micros(1000));
  ASSERT_EQ(wide.layout(0).jas.size(), 9u);
  const IndexConfig wide_config({2, 2, 0, 0, 0, 0, 0, 0, 0});
  EXPECT_EQ(warm_route_allocations(wide, wide_config,
                                   {0, 0, 0, 0, 0, 0, 0, 0, 0},
                                   /*per_stream=*/20, /*results=*/20),
            0u)
      << "9-attribute JAS";
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
