// ABL-ROUTE — routing-policy ablation: the AMR literature's routing
// policies (fixed order, cost-based greedy, lottery) over the same AMRI
// configuration. The index tuner must cope with whatever access-pattern
// mix the router induces; cost-based routing both performs best and
// shifts patterns the hardest under drift.
#include <iostream>

#include "bench_util.hpp"

int bench_main(int argc, char** argv) {
  using namespace amri;
  using namespace amri::bench;

  const Config cfg = Config::from_args(argc, argv);
  EvalParams params = EvalParams::from_config(cfg);
  if (!cfg.has("sim_seconds")) params.duration_seconds = 240.0;
  if (!cfg.has("warmup")) params.warmup_seconds = 60.0;

  std::cout << "=== Ablation: eddy routing policy (AMRI, CDIA-hc) ===\n\n";
  TablePrinter table({"policy", "outputs", "migrations", "peak_mem_kb"});
  const MethodSpec method{"AMRI", engine::IndexBackend::kAmri,
                          assessment::AssessorKind::kCdiaHighestCount, 0};
  const std::pair<engine::RoutingPolicyKind, const char*> policies[] = {
      {engine::RoutingPolicyKind::kFixed, "fixed"},
      {engine::RoutingPolicyKind::kCostBased, "cost_based"},
      {engine::RoutingPolicyKind::kLottery, "lottery"},
  };
  for (const auto& [kind, label] : policies) {
    const auto scenario = make_scenario(params);
    auto eopts = make_executor_options(scenario, params, method);
    eopts.eddy.routing.kind = kind;
    engine::Executor ex(scenario.query(), eopts);
    const auto src = scenario.make_source();
    const auto r = ex.run(*src);
    std::uint64_t migrations = 0;
    for (const auto& s : r.states) migrations += s.migrations;
    table.add_row({label,
                   TablePrinter::fmt_int(static_cast<long long>(r.outputs)),
                   TablePrinter::fmt_int(static_cast<long long>(migrations)),
                   TablePrinter::fmt_int(
                       static_cast<long long>(r.peak_memory / 1024))});
    std::cerr << "[abl-route] " << label << " outputs=" << r.outputs << "\n";
  }
  table.print(std::cout);
  return 0;
}

int main(int argc, char** argv) {
  return amri::bench::guarded_main(bench_main, argc, argv);
}
