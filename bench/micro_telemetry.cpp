// MICRO-TEL — cost of the telemetry layer, measured with google-benchmark:
//   * the disabled path (no telemetry bound) must cost nothing beyond a
//     null-pointer branch — probe timings with and without a bound handle
//     quantify the enabled overhead and confirm the disabled one matches
//     the uninstrumented baseline in micro_index_ops;
//   * raw registry operation costs (counter add, histogram observe, event
//     emit) bound the per-call price of each instrumentation site;
//   * the profiler scope and span-stage sites follow the same contract:
//     with no profiler / no active span they must reduce to a branch.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "index/bit_address_index.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/telemetry.hpp"

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

// Probe with telemetry detached (state.range(0) == 0) vs bound (== 1).
// The detached case is the default for every experiment binary; it should
// be indistinguishable from BM_BitAddress_ProbeExact in micro_index_ops.
void BM_Probe_TelemetryToggle(benchmark::State& state) {
  const auto tuples = make_tuples(kTuples, 2);
  BitAddressIndex idx(jas3(), IndexConfig({4, 4, 4}));
  telemetry::Telemetry telemetry;
  if (state.range(0) != 0) idx.bind_telemetry(&telemetry, "bench.index");
  for (const auto& t : tuples) idx.insert(t.get());
  Rng rng(3);
  std::vector<const Tuple*> out;
  for (auto _ : state) {
    const Tuple& target = *tuples[rng.below(kTuples)];
    ProbeKey key;
    key.mask = 0b011;  // wildcard: exercises the fan-out histogram path
    key.values = {target.at(0), target.at(1), 0};
    out.clear();
    benchmark::DoNotOptimize(idx.probe(key, out));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Probe_TelemetryToggle)->Arg(0)->Arg(1);

void BM_Counter_Add(benchmark::State& state) {
  telemetry::MetricsRegistry reg;
  telemetry::Counter& c = reg.counter("bench.counter");
  for (auto _ : state) {
    c.add();
    benchmark::DoNotOptimize(c.value());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Counter_Add);

void BM_Histogram_Observe(benchmark::State& state) {
  telemetry::MetricsRegistry reg;
  telemetry::Histogram& h = reg.histogram(
      "bench.hist", telemetry::Histogram::exponential_bounds(0.05, 2.0, 16));
  Rng rng(11);
  for (auto _ : state) {
    h.observe(static_cast<double>(rng.below(1000)) * 0.01);
    benchmark::DoNotOptimize(h.count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Histogram_Observe);

void BM_Event_Emit(benchmark::State& state) {
  telemetry::Telemetry telemetry;
  for (auto _ : state) {
    benchmark::DoNotOptimize(telemetry.emit(
        telemetry::EventKind::kRoutingChange, 0,
        "{\"from\":1,\"to\":2}"));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Event_Emit);

// Phase profiler scope: detached (state.range(0) == 0, the default for
// every experiment binary) vs enabled. Detached must cost a null check.
void BM_ScopedPhase_Toggle(benchmark::State& state) {
  telemetry::MetricsRegistry reg;
  telemetry::Profiler profiler(reg);
  telemetry::Profiler* bound = state.range(0) != 0 ? &profiler : nullptr;
  for (auto _ : state) {
    telemetry::ScopedPhase scope(bound, telemetry::Phase::kProbe);
    benchmark::DoNotOptimize(bound);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ScopedPhase_Toggle)->Arg(0)->Arg(1);

// Span-stage instrumentation site, mirroring the guard every producer
// uses: Arg(0) = telemetry detached (null check only), Arg(1) = bound but
// tuple not sampled (active_span() == 0), Arg(2) = sampled (full emit).
void BM_SpanStage_Toggle(benchmark::State& state) {
  telemetry::Telemetry telemetry;
  telemetry::Telemetry* bound = state.range(0) != 0 ? &telemetry : nullptr;
  if (state.range(0) == 2) telemetry.begin_span();
  for (auto _ : state) {
    const std::uint64_t span = bound != nullptr ? bound->active_span() : 0;
    if (span != 0 && bound != nullptr) {
      bound->emit(telemetry::EventKind::kSpan, 0,
                  "{\"span\":1,\"stage\":\"hop\",\"probe_ns\":120}");
    }
    benchmark::DoNotOptimize(span);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SpanStage_Toggle)->Arg(0)->Arg(1)->Arg(2);

}  // namespace

AMRI_BENCHMARK_MAIN()
