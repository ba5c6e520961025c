// MICRO-WALL-PIPELINE — the wall-clock engine mode measured on real
// hardware with google-benchmark: a full executor run (drain → expiry →
// insert → route) over bursty 2-stream arrivals with a ~100k-tuple
// steady-state window, in virtual mode (each batch routed run by run) and
// in wall mode (each batch routed as one mixed-stream segment under the
// sequence horizon), at equal batch sizes. The differential tests assert
// both modes produce identical results; this measures what cross-run
// batching buys in wall time.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "engine/executor.hpp"

namespace {

using namespace amri;
using namespace amri::engine;

constexpr std::size_t kWindow = 100000;  ///< steady-state stored tuples

class ReplaySource final : public TupleSource {
 public:
  explicit ReplaySource(const std::vector<Tuple>* tuples)
      : tuples_(tuples) {}
  std::optional<Tuple> next() override {
    if (pos_ >= tuples_->size()) return std::nullopt;
    return (*tuples_)[pos_++];
  }

 private:
  const std::vector<Tuple>* tuples_;
  std::size_t pos_ = 0;
};

/// Churn-workload join-attribute domain: ~20 window tuples share each
/// value, so every probe dereferences a bucket's worth of tag-matching
/// tuples.
constexpr std::int64_t kChurnDomain = 5000;

/// Bursty 2-stream arrivals: kBurst tuples share each timestamp, bursts
/// 1 ms of virtual time apart. A burst's modelled processing cost is below
/// the burst gap, so the executor keeps up (no unbounded backlog), but
/// within a burst the whole backlog is due at once — real multi-tuple
/// batches form and the wall path's mixed-stream partitions actually mix
/// streams.
constexpr std::size_t kBurst = 512;
constexpr std::size_t kChurnTuples = 300000;

std::vector<Tuple> make_bursty_stream(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tuple> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Tuple t;
    t.stream = static_cast<StreamId>(rng.below(2));
    t.ts = static_cast<TimeMicros>(1000 * (i / kBurst));
    t.seq = static_cast<TupleSeq>(i);
    t.values.push_back(static_cast<Value>(
        rng.below(static_cast<std::uint64_t>(kChurnDomain))));
    out.push_back(t);
  }
  return out;
}

/// End-to-end churn: one full executor run per iteration over 300k bursty
/// arrivals. The window is ~195 bursts deep, so the steady state holds
/// ~100k tuples across the two states; every arrival probes its peer and
/// the window continuously expires. engine:0 is the virtual pipeline,
/// engine:1 the wall mode. Static bitmap backend and fixed routing keep
/// the tuner out of the wall-time signal.
void BM_WallPipeline_EngineChurn(benchmark::State& state) {
  const bool wall = state.range(0) != 0;
  const auto batch = static_cast<std::size_t>(state.range(1));

  const QuerySpec base_q = make_complete_join_query(
      2, seconds_to_micros(0.001 * (kWindow / kBurst)));
  QuerySpec q = base_q;
  // WHERE filters give the drain path real per-tuple selection work.
  q.set_selection(0, Selection({FilterPredicate{0, CompareOp::kGe, 1},
                                FilterPredicate{0, CompareOp::kNe, kChurnDomain}}));
  q.set_selection(1, Selection({FilterPredicate{0, CompareOp::kGe, 1}}));
  const std::vector<Tuple> arrivals = make_bursty_stream(kChurnTuples, 29);

  std::uint64_t outputs = 0;
  std::uint64_t measured = 0;
  for (auto _ : state) {
    ExecutorOptions o;
    o.duration = seconds_to_micros(2.0);
    o.sample_every = seconds_to_micros(1.0);
    o.engine = wall ? EngineMode::kWall : EngineMode::kVirtual;
    o.batch_size = batch;
    o.stem.backend = IndexBackend::kStaticBitmap;
    o.stem.initial_config = index::IndexConfig({17});
    o.eddy.routing.kind = RoutingPolicyKind::kFixed;
    Executor ex(q, o);
    ReplaySource src(&arrivals);
    const RunResult r = ex.run(src);
    outputs += r.outputs;
    measured += r.arrivals;
    benchmark::DoNotOptimize(outputs);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kChurnTuples));
  state.counters["outputs_per_run"] = benchmark::Counter(
      static_cast<double>(outputs), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_WallPipeline_EngineChurn)
    ->ArgNames({"engine", "batch"})
    ->Args({0, 1})    // virtual, batches of one
    ->Args({0, 64})   // virtual batched
    ->Args({1, 64})   // wall: cross-run batching
    ->Args({0, 256})  // virtual vs wall at equal batch
    ->Args({1, 256})
    ->Unit(benchmark::kMillisecond);

}  // namespace

AMRI_BENCHMARK_MAIN()
