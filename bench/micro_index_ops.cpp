// MICRO-IDX — §III claims, measured on real hardware with google-benchmark:
//   * bit-address index maintenance is cheap and independent of how many
//     access patterns it serves;
//   * multi-hash access modules pay per-module insert/erase work;
//   * probe cost: exact-pattern BAI probes touch one bucket; wildcard
//     probes enumerate candidate buckets; module-less patterns full-scan;
//   * migration (IC change) rehashes each stored tuple once.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "index/access_module_set.hpp"
#include "index/bit_address_index.hpp"
#include "index/scan_index.hpp"

namespace {

using namespace amri;
using namespace amri::index;

constexpr std::size_t kTuples = 10000;
constexpr std::int64_t kDomain = 1000;

std::vector<std::unique_ptr<Tuple>> make_tuples(std::size_t n,
                                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::unique_ptr<Tuple>> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto t = std::make_unique<Tuple>();
    t->seq = i;
    for (int a = 0; a < 3; ++a) {
      t->values.push_back(static_cast<Value>(
          rng.below(static_cast<std::uint64_t>(kDomain))));
    }
    out.push_back(std::move(t));
  }
  return out;
}

JoinAttributeSet jas3() { return JoinAttributeSet({0, 1, 2}); }

std::vector<AttrMask> module_masks(std::size_t k) {
  const AttrMask all[] = {0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111};
  return {all, all + k};
}

void BM_BitAddress_Insert(benchmark::State& state) {
  const auto tuples = make_tuples(kTuples, 1);
  const auto bits = static_cast<std::uint8_t>(state.range(0));
  for (auto _ : state) {
    BitAddressIndex idx(jas3(), IndexConfig({bits, bits, bits}));
    for (const auto& t : tuples) idx.insert(t.get());
    benchmark::DoNotOptimize(idx.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTuples));
}
BENCHMARK(BM_BitAddress_Insert)->Arg(2)->Arg(4);

void BM_AccessModules_Insert(benchmark::State& state) {
  const auto tuples = make_tuples(kTuples, 1);
  const auto k = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    AccessModuleSet idx(jas3(), module_masks(k));
    for (const auto& t : tuples) idx.insert(t.get());
    benchmark::DoNotOptimize(idx.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTuples));
}
BENCHMARK(BM_AccessModules_Insert)->Arg(1)->Arg(3)->Arg(5)->Arg(7);

// IC sized so occupancy stays near the paper's balanced-bucket goal
// (~1.5 tuples/bucket) at every scale arg.
IndexConfig config_for(std::size_t tuples) {
  return tuples <= 20000 ? IndexConfig({4, 4, 4}) : IndexConfig({6, 5, 5});
}

void BM_BitAddress_ProbeExact(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto tuples = make_tuples(n, 2);
  BitAddressIndex idx(jas3(), config_for(n));
  for (const auto& t : tuples) idx.insert(t.get());
  Rng rng(3);
  std::vector<const Tuple*> out;
  for (auto _ : state) {
    const Tuple& target = *tuples[rng.below(n)];
    ProbeKey key;
    key.mask = 0b111;
    key.values = {target.at(0), target.at(1), target.at(2)};
    out.clear();
    benchmark::DoNotOptimize(idx.probe(key, out));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BitAddress_ProbeExact)->Arg(10000)->Arg(100000);

// The pre-rewrite bucket directory — a sparse unordered_map of vectors —
// kept alive as an in-binary baseline so one run measures the flat
// open-addressing directory against it (the probe+insert speedup recorded
// in BENCH_<date>.json tracks this pair).
struct UnorderedDirectoryIndex {
  JoinAttributeSet jas = jas3();
  IndexConfig config;
  std::unordered_map<BucketId, std::vector<const Tuple*>> buckets;
  std::size_t size = 0;

  explicit UnorderedDirectoryIndex(IndexConfig c) : config(std::move(c)) {}

  BucketId bucket_of(const Tuple& t) const {
    BucketId id = 0;
    for (std::size_t pos = 0; pos < config.num_attrs(); ++pos) {
      const int bits = config.bits(pos);
      if (bits == 0) continue;
      id |= value_bits(pos, t.at(jas.tuple_attr(pos)), bits)
            << config.shift_of(pos);
    }
    return id;
  }

  void insert(const Tuple* t) {
    buckets[bucket_of(*t)].push_back(t);
    ++size;
  }

  void erase(const Tuple* t) {
    const auto it = buckets.find(bucket_of(*t));
    if (it == buckets.end()) return;
    auto& bucket = it->second;
    const auto pos = std::find(bucket.begin(), bucket.end(), t);
    if (pos == bucket.end()) return;
    *pos = bucket.back();
    bucket.pop_back();
    if (bucket.empty()) buckets.erase(it);
    --size;
  }

  void probe_exact(const ProbeKey& key, std::vector<const Tuple*>& out) const {
    BucketId id = 0;
    for (std::size_t pos = 0; pos < config.num_attrs(); ++pos) {
      const int bits = config.bits(pos);
      if (bits == 0) continue;
      id |= value_bits(pos, key.values[pos], bits) << config.shift_of(pos);
    }
    const auto it = buckets.find(id);
    if (it == buckets.end()) return;
    for (const Tuple* t : it->second) {
      if (key.matches(*t, jas)) out.push_back(t);
    }
  }
};

void BM_UnorderedBaseline_Insert(benchmark::State& state) {
  const auto tuples = make_tuples(kTuples, 1);
  const auto bits = static_cast<std::uint8_t>(state.range(0));
  for (auto _ : state) {
    UnorderedDirectoryIndex idx(IndexConfig({bits, bits, bits}));
    for (const auto& t : tuples) idx.insert(t.get());
    benchmark::DoNotOptimize(idx.size);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTuples));
}
BENCHMARK(BM_UnorderedBaseline_Insert)->Arg(2)->Arg(4);

void BM_UnorderedBaseline_ProbeExact(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto tuples = make_tuples(n, 2);
  UnorderedDirectoryIndex idx(config_for(n));
  for (const auto& t : tuples) idx.insert(t.get());
  Rng rng(3);
  std::vector<const Tuple*> out;
  for (auto _ : state) {
    const Tuple& target = *tuples[rng.below(n)];
    ProbeKey key;
    key.mask = 0b111;
    key.values = {target.at(0), target.at(1), target.at(2)};
    out.clear();
    idx.probe_exact(key, out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_UnorderedBaseline_ProbeExact)->Arg(10000)->Arg(100000);

// The sliding-window hot loop (the workload every STeM runs forever):
// insert the newest arrival, expire the oldest, probe. One item = one
// insert+erase+probe round, so items_per_second is the directory's
// steady-state churn throughput. This is the headline flat-vs-unordered
// comparison: churn is where per-bucket node allocation and erase-side
// rehashing hurt the map, while the flat directory recycles slots in place.
void BM_BitAddress_InsertProbeChurn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t window = n / 2;
  const auto tuples = make_tuples(n, 21);
  BitAddressIndex idx(jas3(), config_for(n));
  for (std::size_t i = 0; i < window; ++i) idx.insert(tuples[i].get());
  Rng rng(22);
  std::vector<const Tuple*> out;
  std::size_t newest = window;
  std::size_t oldest = 0;
  for (auto _ : state) {
    idx.insert(tuples[newest].get());
    idx.erase(tuples[oldest].get());
    newest = (newest + 1) % n;
    oldest = (oldest + 1) % n;
    const Tuple& target = *tuples[(oldest + rng.below(window)) % n];
    ProbeKey key;
    key.mask = 0b111;
    key.values = {target.at(0), target.at(1), target.at(2)};
    out.clear();
    benchmark::DoNotOptimize(idx.probe(key, out));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BitAddress_InsertProbeChurn)->Arg(10000)->Arg(100000);

void BM_UnorderedBaseline_InsertProbeChurn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t window = n / 2;
  const auto tuples = make_tuples(n, 21);
  UnorderedDirectoryIndex idx(config_for(n));
  for (std::size_t i = 0; i < window; ++i) idx.insert(tuples[i].get());
  Rng rng(22);
  std::vector<const Tuple*> out;
  std::size_t newest = window;
  std::size_t oldest = 0;
  for (auto _ : state) {
    idx.insert(tuples[newest].get());
    idx.erase(tuples[oldest].get());
    newest = (newest + 1) % n;
    oldest = (oldest + 1) % n;
    const Tuple& target = *tuples[(oldest + rng.below(window)) % n];
    ProbeKey key;
    key.mask = 0b111;
    key.values = {target.at(0), target.at(1), target.at(2)};
    out.clear();
    idx.probe_exact(key, out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_UnorderedBaseline_InsertProbeChurn)->Arg(10000)->Arg(100000);

void BM_BitAddress_ProbeWildcard(benchmark::State& state) {
  const auto tuples = make_tuples(kTuples, 2);
  BitAddressIndex idx(jas3(), IndexConfig({4, 4, 4}));
  for (const auto& t : tuples) idx.insert(t.get());
  Rng rng(4);
  std::vector<const Tuple*> out;
  const auto mask = static_cast<AttrMask>(state.range(0));
  for (auto _ : state) {
    const Tuple& target = *tuples[rng.below(kTuples)];
    ProbeKey key;
    key.mask = mask;
    key.values = {target.at(0), target.at(1), target.at(2)};
    out.clear();
    benchmark::DoNotOptimize(idx.probe(key, out));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BitAddress_ProbeWildcard)->Arg(0b011)->Arg(0b001);

void BM_AccessModules_ProbeServed(benchmark::State& state) {
  const auto tuples = make_tuples(kTuples, 5);
  AccessModuleSet idx(jas3(), module_masks(3));
  for (const auto& t : tuples) idx.insert(t.get());
  Rng rng(6);
  std::vector<const Tuple*> out;
  for (auto _ : state) {
    const Tuple& target = *tuples[rng.below(kTuples)];
    ProbeKey key;
    key.mask = 0b001;  // served by the first module
    key.values = {target.at(0), 0, 0};
    out.clear();
    benchmark::DoNotOptimize(idx.probe(key, out));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AccessModules_ProbeServed);

void BM_AccessModules_ProbeFallbackScan(benchmark::State& state) {
  const auto tuples = make_tuples(kTuples, 5);
  AccessModuleSet idx(jas3(), {0b001});  // only one module
  for (const auto& t : tuples) idx.insert(t.get());
  Rng rng(7);
  std::vector<const Tuple*> out;
  for (auto _ : state) {
    const Tuple& target = *tuples[rng.below(kTuples)];
    ProbeKey key;
    key.mask = 0b100;  // no module serves this: full scan
    key.values = {0, 0, target.at(2)};
    out.clear();
    benchmark::DoNotOptimize(idx.probe(key, out));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AccessModules_ProbeFallbackScan);

void BM_Scan_Probe(benchmark::State& state) {
  const auto tuples = make_tuples(kTuples, 8);
  ScanIndex idx(jas3());
  for (const auto& t : tuples) idx.insert(t.get());
  Rng rng(9);
  std::vector<const Tuple*> out;
  for (auto _ : state) {
    const Tuple& target = *tuples[rng.below(kTuples)];
    ProbeKey key;
    key.mask = 0b111;
    key.values = {target.at(0), target.at(1), target.at(2)};
    out.clear();
    benchmark::DoNotOptimize(idx.probe(key, out));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Scan_Probe);

void BM_BitAddress_Migrate(benchmark::State& state) {
  const auto tuples = make_tuples(kTuples, 10);
  BitAddressIndex idx(jas3(), IndexConfig({6, 0, 0}));
  for (const auto& t : tuples) idx.insert(t.get());
  const IndexConfig a({6, 0, 0});
  const IndexConfig b({2, 2, 2});
  bool flip = false;
  for (auto _ : state) {
    idx.reconfigure(flip ? a : b);
    flip = !flip;
    benchmark::DoNotOptimize(idx.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTuples));
}
BENCHMARK(BM_BitAddress_Migrate);

void BM_BitAddress_InsertBatch(benchmark::State& state) {
  const auto tuples = make_tuples(100000, 12);
  std::vector<const Tuple*> ptrs;
  ptrs.reserve(tuples.size());
  for (const auto& t : tuples) ptrs.push_back(t.get());
  for (auto _ : state) {
    BitAddressIndex idx(jas3(), IndexConfig({5, 5, 4}));
    idx.insert_batch(ptrs.data(), ptrs.size());
    benchmark::DoNotOptimize(idx.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ptrs.size()));
}
BENCHMARK(BM_BitAddress_InsertBatch);

void BM_AccessModules_Retune(benchmark::State& state) {
  const auto tuples = make_tuples(kTuples, 11);
  AccessModuleSet idx(jas3(), {0b001, 0b010});
  for (const auto& t : tuples) idx.insert(t.get());
  bool flip = false;
  for (auto _ : state) {
    idx.retune(flip ? std::vector<AttrMask>{0b001, 0b010}
                    : std::vector<AttrMask>{0b100, 0b011});
    flip = !flip;
    benchmark::DoNotOptimize(idx.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTuples));
}
BENCHMARK(BM_AccessModules_Retune);

}  // namespace

AMRI_BENCHMARK_MAIN()
