// ABL-BITS — §III (the IC bit budget): sweep the total bits available to
// each state's bit-address index. Too few bits leave buckets overfull
// (probe compares grow); beyond a point, extra bits stop paying because
// buckets are already near-singleton for the hot access patterns.
#include <iostream>

#include "bench_util.hpp"

int bench_main(int argc, char** argv) {
  using namespace amri;
  using namespace amri::bench;

  const Config cfg = Config::from_args(argc, argv);
  EvalParams params = EvalParams::from_config(cfg);
  if (!cfg.has("sim_seconds")) params.duration_seconds = 240.0;
  if (!cfg.has("warmup")) params.warmup_seconds = 60.0;

  std::cout << "=== Ablation: IC bit budget (AMRI, CDIA-hc) ===\n\n";
  TablePrinter table({"bits", "outputs", "migrations", "charged_virtual_s",
                      "peak_mem_kb"});
  const MethodSpec method{"AMRI", engine::IndexBackend::kAmri,
                          assessment::AssessorKind::kCdiaHighestCount, 0};
  for (const int bits : {2, 4, 6, 8, 10, 12, 14, 16}) {
    EvalParams p = params;
    p.bit_budget = bits;
    const auto scenario = make_scenario(p);
    const auto r = run_method(scenario, p, method);
    std::uint64_t migrations = 0;
    for (const auto& s : r.states) migrations += s.migrations;
    table.add_row({TablePrinter::fmt_int(bits),
                   TablePrinter::fmt_int(static_cast<long long>(r.outputs)),
                   TablePrinter::fmt_int(static_cast<long long>(migrations)),
                   TablePrinter::fmt(r.charged_us / 1e6, 1),
                   TablePrinter::fmt_int(
                       static_cast<long long>(r.peak_memory / 1024))});
    std::cerr << "[abl-bits] bits=" << bits << " outputs=" << r.outputs
              << "\n";
  }
  table.print(std::cout);
  return 0;
}

int main(int argc, char** argv) {
  return amri::bench::guarded_main(bench_main, argc, argv);
}
