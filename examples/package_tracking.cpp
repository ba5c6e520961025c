// The paper's §I-A running example: a package-tracking DSMS whose sensor
// state carries priority code (A1), package id (A2) and location id (A3).
//
// We contrast the multi-hash access-module design (indices on A1, A1&A2,
// A2&A3 — paper Figure 1) with the single bit-address index (5 bits for
// A1, 2 for A2, 3 for A3 — paper Figure 3) on the paper's two search
// requests:
//   sr1: priority = 2012 AND location = 47   (served by the A1 module)
//   sr2: location = 47                        (no module: full scan!)
#include <iostream>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "index/access_module_set.hpp"
#include "index/bit_address_index.hpp"

using namespace amri;
using namespace amri::index;

namespace {

struct Fleet {
  std::vector<std::unique_ptr<Tuple>> sensors;
};

Fleet make_fleet(std::size_t n) {
  Fleet fleet;
  Rng rng(2012);
  for (std::size_t i = 0; i < n; ++i) {
    auto t = std::make_unique<Tuple>();
    t->seq = i;
    t->values = {
        static_cast<Value>(2000 + rng.below(32)),  // A1 priority code
        static_cast<Value>(rng.below(4000)),       // A2 package id
        static_cast<Value>(rng.below(64)),         // A3 location id
    };
    fleet.sensors.push_back(std::move(t));
  }
  return fleet;
}

void report(const char* title, const ProbeStats& stats) {
  std::cout << "  " << title << ": " << stats.matches << " packages, "
            << stats.buckets_visited << " bucket(s) visited, "
            << stats.tuples_compared << " tuples compared\n";
}

}  // namespace

int main() {
  const JoinAttributeSet jas({0, 1, 2});  // A1, A2, A3
  const auto fleet = make_fleet(20000);

  // --- Paper Figure 1: hash indices on A1, A1&A2, A2&A3.
  CostMeter hash_meter;
  MemoryTracker hash_mem;
  AccessModuleSet modules(jas, {0b001, 0b011, 0b110}, &hash_meter, &hash_mem);
  for (const auto& t : fleet.sensors) modules.insert(t.get());

  // --- Paper Figure 3: one bit-address index, IC = [A1:5 A2:2 A3:3].
  CostMeter bai_meter;
  MemoryTracker bai_mem;
  BitAddressIndex bai(jas, IndexConfig({5, 2, 3}), &bai_meter, &bai_mem);
  for (const auto& t : fleet.sensors) bai.insert(t.get());

  std::cout << "ingested " << fleet.sensors.size() << " sensor readings\n"
            << "  access modules: " << hash_meter.hashes()
            << " hash computations, "
            << hash_mem.category(MemCategory::kIndexStructure) / 1024
            << " KiB of index structure\n"
            << "  bit-address:    " << bai_meter.hashes()
            << " hash computations, "
            << bai_mem.category(MemCategory::kIndexStructure) / 1024
            << " KiB of index structure\n\n";

  // sr1: priority = 2012 AND location = 47 (access pattern <A1,*,A3>).
  ProbeKey sr1;
  sr1.mask = 0b101;
  sr1.values = {2012, 0, 47};
  std::vector<const Tuple*> out;

  std::cout << "sr1 = {priority=2012, location=47}  (pattern <A1,*,A3>)\n";
  const HashIndex* chosen = modules.module_for(sr1.mask);
  std::cout << "  most suitable module: "
            << (chosen ? chosen->name() : std::string("NONE -> full scan"))
            << "\n";
  out.clear();
  report("access modules", modules.probe(sr1, out));
  out.clear();
  report("bit-address   ", bai.probe(sr1, out));

  // sr2: location = 47 only (pattern <*,*,A3>): no module serves it.
  ProbeKey sr2;
  sr2.mask = 0b100;
  sr2.values = {0, 0, 47};
  std::cout << "\nsr2 = {location=47}  (pattern <*,*,A3>)\n";
  std::cout << "  most suitable module: "
            << (modules.module_for(sr2.mask) != nullptr
                    ? "found"
                    : "NONE -> full scan of the state")
            << "\n";
  out.clear();
  report("access modules", modules.probe(sr2, out));
  out.clear();
  report("bit-address   ", bai.probe(sr2, out));

  std::cout << "\nThe bit-address index answers sr2 by scanning only the "
               "2^(5+2) = 128\nbucket combinations matching A3's bits — no "
               "new index, no extra\nper-tuple key links (the paper's case "
               "for AMRI).\n";
  return 0;
}
