// The enumerate-vs-filter crossover, pinned at its exact boundary: a
// wildcard probe enumerates the 2^wildcard_bits combinations iff
// enum_count <= occupied buckets, otherwise it filters the directory.
// This test drives the occupied count through enum_count - 1, enum_count
// and enum_count + 1 and asserts probe() picks the expected strategy at
// every step. Plus the pow2_saturating extremes that guarantee very wide
// wildcards can never flip back to enumeration.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "../test_util.hpp"
#include "common/bitops.hpp"
#include "common/cost_meter.hpp"
#include "common/rng.hpp"
#include "index/bit_address_index.hpp"
#include "telemetry/telemetry.hpp"

namespace amri::index {
namespace {

/// Strategy counters (probe.enumerated / probe.filtered) around one call.
struct StrategyDelta {
  std::uint64_t enumerated = 0;
  std::uint64_t filtered = 0;
};

class BoundaryFixture {
 public:
  BoundaryFixture()
      : idx_(JoinAttributeSet({0, 1, 2}), IndexConfig({3, 3, 2}), &meter_) {
    idx_.bind_telemetry(&tel_, "idx");
    enumerated_ = tel_.metrics().find_counter("idx.probe.enumerated");
    filtered_ = tel_.metrics().find_counter("idx.probe.filtered");
  }

  /// Insert random tuples until exactly `target` buckets are occupied.
  void fill_to_occupancy(std::size_t target) {
    Rng rng(4242);
    while (idx_.occupancy().occupied < target) {
      auto t = std::make_unique<Tuple>();
      t->seq = owned_.size();
      for (int a = 0; a < 3; ++a) {
        t->values.push_back(static_cast<Value>(rng.below(1u << 20)));
      }
      const std::size_t before = idx_.occupancy().occupied;
      idx_.insert(t.get());
      if (idx_.occupancy().occupied == before) {
        idx_.erase(t.get());  // landed in an occupied bucket; try again
        continue;
      }
      owned_.push_back(std::move(t));
    }
    ASSERT_EQ(idx_.occupancy().occupied, target);
  }

  StrategyDelta probe_once(const ProbeKey& key, std::vector<const Tuple*>& out,
                           ProbeStats& stats) {
    const std::uint64_t e0 = enumerated_->value();
    const std::uint64_t f0 = filtered_->value();
    stats = idx_.probe(key, out);
    return {enumerated_->value() - e0, filtered_->value() - f0};
  }

 private:
  CostMeter meter_;
  telemetry::Telemetry tel_;
  BitAddressIndex idx_;
  const telemetry::Counter* enumerated_ = nullptr;
  const telemetry::Counter* filtered_ = nullptr;
  std::vector<std::unique_ptr<Tuple>> owned_;
};

TEST(ProbeStrategyBoundary, CrossoverFlipsExactlyAtOccupancy) {
  // mask 0b100 binds the 2-bit attribute, leaving 6 wildcard bits:
  // enum_count = 64, so the boundary sits at 64 occupied buckets — well
  // inside the directory's 2^8 = 256 addressable buckets, so every
  // occupancy step below is actually reachable.
  constexpr std::uint64_t kEnumCount = 64;
  ProbeKey key;
  key.mask = 0b100;
  key.values = {0, 0, 7};

  struct Step {
    std::size_t occupancy;
    bool expect_enumerate;
  };
  for (const Step step : {Step{kEnumCount - 1, false}, Step{kEnumCount, true},
                          Step{kEnumCount + 1, true}}) {
    BoundaryFixture fx;
    fx.fill_to_occupancy(step.occupancy);

    std::vector<const Tuple*> out;
    ProbeStats stats;
    const StrategyDelta sd = fx.probe_once(key, out, stats);
    EXPECT_EQ(sd.enumerated, step.expect_enumerate ? 1u : 0u)
        << "occupancy " << step.occupancy;
    EXPECT_EQ(sd.filtered, step.expect_enumerate ? 0u : 1u)
        << "occupancy " << step.occupancy;
    // Enumeration visits every wildcard combination; filtering visits only
    // the occupied buckets whose id matches the bound attribute's fixed
    // bits (a data-dependent subset of the occupancy). The strategy
    // counters above, not the visit count, pin the choice.
    if (step.expect_enumerate) {
      EXPECT_EQ(stats.buckets_visited, kEnumCount)
          << "occupancy " << step.occupancy;
    } else {
      EXPECT_LE(stats.buckets_visited, step.occupancy)
          << "occupancy " << step.occupancy;
    }
  }
}

TEST(ProbeStrategyBoundary, SaturatedWildcardWidthsNeverEnumerate) {
  // IndexConfig::kMaxTotalBits caps real configurations at 30 wildcard
  // bits, but the strategy predicate itself must stay safe out to the
  // 63/64-bit extremes: 2^63 is representable, 64 saturates to UINT64_MAX,
  // and neither can ever be <= a directory's occupied-bucket count (a
  // directory holds at most one bucket per inserted tuple, nowhere near
  // 2^63). So the filter path is unconditionally chosen for saturated
  // widths — no overflow back into cheap-looking enumeration.
  EXPECT_EQ(pow2_saturating(63), std::uint64_t{1} << 63);
  EXPECT_EQ(pow2_saturating(64), ~std::uint64_t{0});
  EXPECT_EQ(pow2_saturating(70), ~std::uint64_t{0});
  EXPECT_GT(pow2_saturating(63), static_cast<std::uint64_t>(1) << 40)
      << "even 2^63 dwarfs any feasible directory";
}

}  // namespace
}  // namespace amri::index
