// ABL-ATTRS — paper §V: "even for systems with a small number of possible
// aps, there already is a significant benefit ... Clearly, as the number
// of ap in a state increases so does the probability of ap statistics
// being eliminated."
//
// Sweep the join-attribute count n (pattern space 2^n) under a drifting
// request mix and measure, per assessment method, how much of the
// workload's probability mass survives into the tuning answer at theta.
// With more attributes the mass fragments across more patterns, so exact
// thresholding (SRIA) and deletion (CSRIA) lose a growing share, while
// CDIA's lattice combination recovers it into ancestors.
#include <iostream>

#include "bench_util.hpp"
#include "workload/request_generator.hpp"

namespace {

using namespace amri;

/// Share of all requests covered by the reported patterns (by true count).
double reported_mass(const std::vector<assessment::AssessedPattern>& res,
                     std::uint64_t total) {
  std::uint64_t sum = 0;
  for (const auto& r : res) sum += r.count;
  return total == 0 ? 0.0 : static_cast<double>(sum) / total;
}

}  // namespace

int bench_main(int argc, char** argv) {
  using namespace amri::bench;

  const Config cfg = Config::from_args(argc, argv);
  const double theta = cfg.double_or("theta", 0.1);
  const double epsilon = cfg.double_or("epsilon", 0.05);
  const auto requests =
      static_cast<std::uint64_t>(cfg.int_or("requests", 60000));

  std::cout << "=== Ablation: join attributes per state (pattern space "
               "2^n) ===\n"
            << "reported mass = share of request mass the tuner sees at "
               "theta=" << theta << "\n\n";
  TablePrinter table({"attrs", "patterns", "SRIA_mass", "CSRIA_mass",
                      "CDIA_hc_mass", "SRIA_entries", "CSRIA_entries",
                      "CDIA_entries"});
  for (const int n : {3, 4, 5, 6, 8, 10}) {
    const AttrMask universe = low_bits(n);
    assessment::AssessorParams params;
    params.epsilon = epsilon;
    const auto sria =
        assessment::make_assessor(assessment::AssessorKind::kSria, universe);
    const auto csria = assessment::make_assessor(
        assessment::AssessorKind::kCsria, universe, params);
    const auto cdia = assessment::make_assessor(
        assessment::AssessorKind::kCdiaHighestCount, universe, params);

    // Drifting mix: per phase one hot single-attribute family (the route
    // head) plus the full pattern, with a diverse noise floor — request
    // mass fragments across the space as n grows.
    auto gen = workload::RequestGenerator::rotating(
        n, 8, requests / 8, 0.5, 42 + static_cast<std::uint64_t>(n));
    for (std::uint64_t i = 0; i < requests; ++i) {
      const AttrMask m = gen.next();
      sria->observe(m);
      csria->observe(m);
      cdia->observe(m);
    }

    table.add_row(
        {TablePrinter::fmt_int(n),
         TablePrinter::fmt_int((1ll << n)),
         TablePrinter::fmt_pct(reported_mass(sria->results(theta), requests)),
         TablePrinter::fmt_pct(reported_mass(csria->results(theta), requests)),
         TablePrinter::fmt_pct(reported_mass(cdia->results(theta), requests)),
         TablePrinter::fmt_int(static_cast<long long>(sria->table_size())),
         TablePrinter::fmt_int(static_cast<long long>(csria->table_size())),
         TablePrinter::fmt_int(static_cast<long long>(cdia->table_size()))});
    std::cerr << "[abl-attrs] n=" << n << " done\n";
  }
  table.print(std::cout);
  std::cout << "\n(CDIA's recovered mass is what index selection gets to "
               "allocate bits with;\nthe SRIA/CSRIA columns shrink as the "
               "space grows — the paper's elimination\nprobability claim.)\n";
  return 0;
}

int main(int argc, char** argv) {
  return amri::bench::guarded_main(bench_main, argc, argv);
}
