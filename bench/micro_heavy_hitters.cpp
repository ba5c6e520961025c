// MICRO-HH — ingest cost of the heavy-hitter machinery behind the
// assessment methods: Lossy Counting (CSRIA) and the lattice-based
// hierarchical heavy hitter (CDIA), under skewed and uniform access-pattern
// streams. Counters report the retained table size.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <vector>

#include "common/rng.hpp"
#include "stats/hierarchical_hh.hpp"
#include "stats/lossy_counting.hpp"

namespace {

using namespace amri;
using namespace amri::stats;

std::vector<AttrMask> make_stream(std::size_t n, bool skewed,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<AttrMask> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (skewed && rng.uniform01() < 0.6) {
      out.push_back(0b0000011);  // hot pattern
    } else {
      out.push_back(static_cast<AttrMask>(rng.below(128)));  // 7 attrs
    }
  }
  return out;
}

constexpr std::size_t kN = 100000;

void BM_LossyCounting(benchmark::State& state) {
  const auto stream = make_stream(kN, state.range(0) != 0, 1);
  std::size_t table = 0;
  for (auto _ : state) {
    LossyCounting<AttrMask> lc(0.01);
    for (const AttrMask m : stream) lc.observe(m);
    table = lc.size();
    benchmark::DoNotOptimize(table);
  }
  state.counters["table"] = static_cast<double>(table);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kN));
}
BENCHMARK(BM_LossyCounting)->Arg(0)->Arg(1);

void BM_HierarchicalHH(benchmark::State& state) {
  const auto stream = make_stream(kN, state.range(0) != 0, 4);
  std::size_t table = 0;
  for (auto _ : state) {
    HierarchicalHeavyHitter hhh(0x7F, 0.01, CombinePolicy::kHighestCount);
    for (const AttrMask m : stream) hhh.observe(m);
    table = hhh.size();
    benchmark::DoNotOptimize(table);
  }
  state.counters["table"] = static_cast<double>(table);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kN));
}
BENCHMARK(BM_HierarchicalHH)->Arg(0)->Arg(1);

void BM_HierarchicalHH_Results(benchmark::State& state) {
  const auto stream = make_stream(kN, true, 5);
  HierarchicalHeavyHitter hhh(0x7F, 0.01, CombinePolicy::kHighestCount);
  for (const AttrMask m : stream) hhh.observe(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hhh.results(0.1));
  }
}
BENCHMARK(BM_HierarchicalHH_Results);

}  // namespace

AMRI_BENCHMARK_MAIN()
