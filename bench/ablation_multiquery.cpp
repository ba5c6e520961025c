// ABL-MQ — multi-query scaling (paper §II: the AMRI logic "equally applies
// to multiple SPJ queries"): Q concurrent 2-way queries over the same two
// streams, each joining on a different attribute pair. Shared states must
// serve the union of all queries' access patterns with ONE bit-address
// index; the baseline would need a module per pattern.
//
// Two measurements, both emitted as `--json` records for the committed
// BENCH trajectory:
//   * the queries × shards × batch grid (record names
//     `abl_multiquery/queries:Q/shards:S/batch:B`) — multi-query runs on
//     the unified run-loop core inherit sharding and the batched
//     pipeline, so the full grid is one executor;
//   * shared-state vs Q independent executors (record names
//     `abl_multiquery/shared_vs_independent/queries:Q`) — the same
//     arrivals through one MultiQueryExecutor and through Q separate
//     single-query executors. The shared window stores hold each tuple
//     once instead of Q times, so shared peak memory must sit strictly
//     below the independent total.
#include <algorithm>
#include <iostream>

#include "bench_util.hpp"
#include "engine/multi_query.hpp"

namespace {

using namespace amri;
using namespace amri::bench;

/// Q queries over two streams with `q_max` attributes each; query i joins
/// attribute i of both streams.
std::vector<engine::QuerySpec> make_queries(std::size_t q, TimeMicros window) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < q; ++i) names.push_back("a" + std::to_string(i));
  const std::vector<Schema> schemas = {Schema("Left", names),
                                       Schema("Right", names)};
  std::vector<engine::QuerySpec> out;
  for (std::size_t i = 0; i < q; ++i) {
    out.emplace_back(schemas,
                     std::vector<engine::JoinPredicate>{
                         {0, static_cast<AttrId>(i), 1, static_cast<AttrId>(i)}},
                     window);
  }
  return out;
}

/// Uniform 2-stream source over `attrs` attributes.
class TwoStreamSource final : public engine::TupleSource {
 public:
  TwoStreamSource(std::size_t attrs, double rate, TimeMicros end,
                  std::uint64_t seed)
      : attrs_(attrs), interval_(seconds_to_micros(1.0 / rate)), end_(end),
        rng_(seed) {}

  std::optional<Tuple> next() override {
    if (now_ >= end_) return std::nullopt;
    Tuple t;
    t.stream = static_cast<StreamId>(seq_ % 2);
    t.ts = now_;
    t.seq = seq_++;
    for (std::size_t a = 0; a < attrs_; ++a) {
      t.values.push_back(static_cast<Value>(rng_.below(64)));
    }
    now_ += interval_ / 2;  // two streams interleaved
    return t;
  }

 private:
  std::size_t attrs_;
  TimeMicros interval_;
  TimeMicros end_;
  TimeMicros now_ = 0;
  TupleSeq seq_ = 0;
  Rng rng_;
};

engine::ExecutorOptions make_options(std::size_t q, double rate,
                                     double window_s, double duration_s) {
  engine::ExecutorOptions opts;
  opts.duration = seconds_to_micros(duration_s);
  opts.warmup = seconds_to_micros(std::min(20.0, duration_s / 4.0));
  opts.costs.compare_cost_us = 0.35;
  opts.model_params.lambda_d = rate;
  opts.model_params.lambda_r = rate * static_cast<double>(q);
  opts.model_params.window_units = window_s;
  opts.model_params.compare_cost = 0.35;
  opts.stem.backend = engine::IndexBackend::kAmri;
  opts.stem.initial_config = index::IndexConfig(std::vector<std::uint8_t>(
      q, static_cast<std::uint8_t>(std::max<std::size_t>(8 / q, 1))));
  tuner::TunerOptions t;
  t.reassess_every = 2000;
  t.optimizer.bit_budget = 8;
  opts.stem.amri_tuner = t;
  return opts;
}

}  // namespace

int bench_main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);
  const double rate = cfg.double_or("rate", 200.0);
  const double window_s = cfg.double_or("window", 20.0);
  const double duration_s = cfg.double_or("sim_seconds", 120.0);
  const auto max_queries =
      static_cast<std::size_t>(cfg.int_or("max_queries", 5));
  std::vector<BenchRecord> records;

  std::cout << "=== Multi-query scaling: shared AMRI state across Q "
               "concurrent queries ===\n\n";
  TablePrinter table({"queries", "shards", "batch", "combined_outputs",
                      "peak_mem_kib", "state0_final_ic", "migrations"});
  for (std::size_t q = 1; q <= max_queries; ++q) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
      for (const std::size_t batch : {std::size_t{1}, std::size_t{8}}) {
        auto opts = make_options(q, rate, window_s, duration_s);
        opts.stem.shards = shards;
        opts.batch_size = batch;
        engine::MultiQueryExecutor ex(
            make_queries(q, seconds_to_micros(window_s)), opts);
        TwoStreamSource src(q, rate, kTimeMax, 9 + q);
        const auto r = ex.run(src);
        std::uint64_t migrations = 0;
        for (const auto& s : r.combined.states) migrations += s.migrations;
        table.add_row(
            {TablePrinter::fmt_int(static_cast<long long>(q)),
             TablePrinter::fmt_int(static_cast<long long>(shards)),
             TablePrinter::fmt_int(static_cast<long long>(batch)),
             TablePrinter::fmt_int(static_cast<long long>(r.combined.outputs)),
             TablePrinter::fmt(
                 static_cast<double>(r.combined.peak_memory) / 1024.0, 1),
             r.combined.states[0].final_index,
             TablePrinter::fmt_int(static_cast<long long>(migrations))});
        const std::string name =
            "abl_multiquery/queries:" + std::to_string(q) +
            "/shards:" + std::to_string(shards) +
            "/batch:" + std::to_string(batch);
        records.push_back(
            {name, "outputs", static_cast<double>(r.combined.outputs)});
        records.push_back({name, "peak_memory_bytes",
                           static_cast<double>(r.combined.peak_memory)});
        records.push_back(
            {name, "migrations", static_cast<double>(migrations)});
        for (std::size_t qi = 0; qi < r.per_query_outputs.size(); ++qi) {
          records.push_back({name, "q" + std::to_string(qi) + "_outputs",
                             static_cast<double>(r.per_query_outputs[qi])});
        }
        std::cerr << "[abl-mq] q=" << q << " shards=" << shards
                  << " batch=" << batch << " outputs=" << r.combined.outputs
                  << "\n";
      }
    }
  }
  table.print(std::cout);

  // Shared-state vs Q independent executors over the same arrivals: the
  // shared window stores hold each tuple once instead of Q times.
  std::cout << "\n=== Shared state vs " << max_queries
            << " independent executors ===\n\n";
  const auto queries = make_queries(max_queries, seconds_to_micros(window_s));
  const auto base_opts = make_options(max_queries, rate, window_s, duration_s);

  engine::MultiQueryExecutor shared_ex(queries, base_opts);
  TwoStreamSource shared_src(max_queries, rate, kTimeMax, 7);
  const auto shared = shared_ex.run(shared_src);

  std::uint64_t independent_outputs = 0;
  std::size_t independent_peak = 0;
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    engine::Executor ex(queries[qi], base_opts);
    TwoStreamSource src(max_queries, rate, kTimeMax, 7);
    const auto r = ex.run(src);
    independent_outputs += r.outputs;
    independent_peak += r.peak_memory;
  }
  const double ratio =
      independent_peak > 0
          ? static_cast<double>(shared.combined.peak_memory) /
                static_cast<double>(independent_peak)
          : 0.0;
  TablePrinter cmp({"mode", "outputs", "peak_mem_kib"});
  cmp.add_row(
      {"shared",
       TablePrinter::fmt_int(static_cast<long long>(shared.combined.outputs)),
       TablePrinter::fmt(
           static_cast<double>(shared.combined.peak_memory) / 1024.0, 1)});
  cmp.add_row(
      {"independent x" + std::to_string(max_queries),
       TablePrinter::fmt_int(static_cast<long long>(independent_outputs)),
       TablePrinter::fmt(static_cast<double>(independent_peak) / 1024.0, 1)});
  cmp.print(std::cout);
  std::cout << "shared/independent peak memory: "
            << TablePrinter::fmt(ratio, 3) << "\n";

  const std::string cmp_name =
      "abl_multiquery/shared_vs_independent/queries:" +
      std::to_string(max_queries);
  records.push_back({cmp_name, "shared_outputs",
                     static_cast<double>(shared.combined.outputs)});
  records.push_back({cmp_name, "independent_outputs_total",
                     static_cast<double>(independent_outputs)});
  records.push_back({cmp_name, "shared_peak_memory_bytes",
                     static_cast<double>(shared.combined.peak_memory)});
  records.push_back({cmp_name, "independent_peak_memory_bytes_total",
                     static_cast<double>(independent_peak)});
  records.push_back({cmp_name, "shared_over_independent_memory", ratio});

  maybe_write_json(cfg, records);
  return 0;
}

int main(int argc, char** argv) {
  return amri::bench::guarded_main(bench_main, argc, argv);
}
