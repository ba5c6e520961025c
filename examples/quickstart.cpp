// Quickstart: the AMRI public API in five minutes.
//
//  1. Build a bit-address index over a state's join attributes.
//  2. Insert tuples and probe with different access patterns.
//  3. Collect access-pattern statistics with a CDIA assessor.
//  4. Run index selection (paper Eq. 1) and migrate the index.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <iostream>
#include <memory>
#include <vector>

#include "assessment/assessor.hpp"
#include "index/bit_address_index.hpp"
#include "index/index_migrator.hpp"
#include "index/index_optimizer.hpp"

using namespace amri;

int main() {
  // --- 1. A state with three join attributes (JAS positions 0,1,2 map to
  // tuple attributes 0,1,2) and an even 6-bit index configuration.
  const index::JoinAttributeSet jas({0, 1, 2});
  index::BitAddressIndex idx(jas, index::IndexConfig({2, 2, 2}));

  // --- 2. Store some tuples.
  std::vector<std::unique_ptr<Tuple>> tuples;
  for (Value v = 0; v < 1000; ++v) {
    auto t = std::make_unique<Tuple>();
    t->seq = static_cast<TupleSeq>(v);
    t->values = {v % 50, v % 20, v % 10};
    idx.insert(t.get());
    tuples.push_back(std::move(t));
  }
  std::cout << "stored " << idx.size() << " tuples in "
            << idx.occupied_buckets() << " buckets under "
            << idx.config().to_string() << "\n";

  // Probe binding every attribute (one bucket), then only attribute A
  // (wildcards over B and C's bits).
  index::ProbeKey exact;
  exact.mask = 0b111;
  exact.values = {7, 7, 7};
  std::vector<const Tuple*> out;
  auto stats = idx.probe(exact, out);
  std::cout << "exact probe <A,B,C>: " << stats.matches << " matches, "
            << stats.buckets_visited << " bucket(s), "
            << stats.tuples_compared << " compares\n";

  index::ProbeKey partial;
  partial.mask = 0b001;
  partial.values = {7, 0, 0};
  out.clear();
  stats = idx.probe(partial, out);
  std::cout << "wildcard probe <A,*,*>: " << stats.matches << " matches, "
            << stats.buckets_visited << " buckets, "
            << stats.tuples_compared << " compares\n";

  // --- 3. Track which access patterns the workload actually uses.
  assessment::AssessorParams aparams;
  aparams.epsilon = 0.01;
  const auto assessor = assessment::make_assessor(
      assessment::AssessorKind::kCdiaHighestCount, 0b111, aparams);
  for (int i = 0; i < 900; ++i) assessor->observe(0b001);  // mostly <A,*,*>
  for (int i = 0; i < 100; ++i) assessor->observe(0b111);
  const auto frequent = assessor->results(0.1);
  std::cout << "\nfrequent access patterns:\n";
  for (const auto& p : frequent) {
    std::cout << "  " << index::pattern_to_string(p.mask, 3) << "  "
              << p.frequency * 100 << "%\n";
  }

  // --- 4. Select the cost-optimal IC for that workload and migrate.
  index::WorkloadParams wp;
  wp.lambda_d = 100;   // tuples/sec
  wp.lambda_r = 500;   // probes/sec
  wp.window_units = 10;
  const index::CostModel model(wp);
  index::OptimizerOptions oopts;
  oopts.bit_budget = 6;
  oopts.max_bits_per_attr = 6;
  const index::IndexOptimizer optimizer(model, oopts);
  const auto best =
      optimizer.optimize(3, assessment::to_pattern_frequencies(frequent));
  std::cout << "\noptimizer recommends " << best.config.to_string()
            << " (C_D=" << best.cost << ", evaluated "
            << best.configs_evaluated << " configs)\n";

  const index::IndexMigrator migrator;
  const auto report = migrator.migrate(idx, best.config);
  std::cout << "migrated " << report.tuples_moved << " tuples from "
            << report.from.to_string() << " to " << report.to.to_string()
            << "\n";

  out.clear();
  stats = idx.probe(partial, out);
  std::cout << "wildcard probe <A,*,*> after tuning: " << stats.matches
            << " matches, " << stats.buckets_visited << " buckets, "
            << stats.tuples_compared << " compares\n";
  return 0;
}
