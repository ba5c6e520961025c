// Property tests: for any index configuration and any probe, the
// bit-address index must return exactly the tuples a full scan returns —
// the IC changes cost, never correctness. Parameterized across ICs, value
// alphabets and access patterns.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <set>
#include <tuple>
#include <vector>

#include "../test_util.hpp"
#include "index/bit_address_index.hpp"
#include "index/scan_index.hpp"

namespace amri::index {
namespace {

struct PropertyCase {
  std::vector<std::uint8_t> bits;
  bool full_range;  ///< values spread over all of int64, not [0, kDomain)
  AttrMask probe_mask;
};

constexpr std::int64_t kDomain = 25;

// The `_hash` cases store and probe the dense values [0, kDomain). The
// `_range` cases map the same draws onto kDomain values spread over the
// whole int64 range: both extremes, negatives, powers of two and the three
// values that cancel a JAS position's salt, so value_bits sees every sign
// and magnitude.
Value alphabet_value(bool full_range, std::uint64_t i) {
  using Limits = std::numeric_limits<Value>;
  static const std::array<Value, kDomain> kSpread = {
      Limits::min(),
      Limits::min() + 1,
      -(Value{1} << 62),
      -(Value{1} << 48),
      -(Value{1} << 32),
      -(Value{1} << 31),
      -65536,
      -1000,
      -2,
      -1,
      0,
      1,
      2,
      1000,
      65536,
      (Value{1} << 31) - 1,
      Value{1} << 31,
      Value{1} << 32,
      Value{1} << 48,
      Value{1} << 62,
      Limits::max() - 1,
      Limits::max(),
      static_cast<Value>(0 - 0x9e3779b97f4a7c15ULL),
      static_cast<Value>(0 - 0x9e3779b97f4a7c15ULL * 2),
      static_cast<Value>(0 - 0x9e3779b97f4a7c15ULL * 3),
  };
  return full_range ? kSpread[i] : static_cast<Value>(i);
}

class BitAddressEquivalence
    : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(BitAddressEquivalence, ProbeMatchesScanExactly) {
  const PropertyCase& pc = GetParam();
  const JoinAttributeSet jas({0, 1, 2});
  BitAddressIndex bai(jas, IndexConfig(pc.bits));
  ScanIndex scan(jas);

  const testutil::TuplePool pool(400, 3, kDomain, 0xabc);
  std::vector<Tuple> stored;
  stored.reserve(pool.size());
  for (const Tuple* t : pool.pointers()) {
    Tuple copy = *t;
    for (Value& v : copy.values) {
      v = alphabet_value(pc.full_range, static_cast<std::uint64_t>(v));
    }
    stored.push_back(copy);
  }
  for (const Tuple& t : stored) {
    bai.insert(&t);
    scan.insert(&t);
  }

  Rng rng(0xdef);
  for (int trial = 0; trial < 30; ++trial) {
    ProbeKey key;
    key.mask = pc.probe_mask;
    key.values.resize(3, 0);
    for_each_bit(key.mask, [&](unsigned pos) {
      key.values[pos] = alphabet_value(
          pc.full_range, rng.below(static_cast<std::uint64_t>(kDomain)));
    });
    std::vector<const Tuple*> via_bai;
    std::vector<const Tuple*> via_scan;
    bai.probe(key, via_bai);
    scan.probe(key, via_scan);
    std::set<const Tuple*> a(via_bai.begin(), via_bai.end());
    std::set<const Tuple*> b(via_scan.begin(), via_scan.end());
    EXPECT_EQ(a, b) << "mask=" << pc.probe_mask;
    EXPECT_EQ(via_bai.size(), a.size()) << "duplicate results";
  }
}

std::vector<PropertyCase> property_cases() {
  std::vector<PropertyCase> cases;
  const std::vector<std::vector<std::uint8_t>> configs = {
      {0, 0, 0}, {4, 0, 0}, {0, 0, 6}, {2, 2, 2},
      {5, 2, 3}, {1, 1, 1}, {8, 0, 2}, {3, 3, 3},
  };
  for (const auto& bits : configs) {
    for (const bool full_range : {false, true}) {
      for (const AttrMask mask : {0u, 0b001u, 0b010u, 0b100u, 0b011u,
                                  0b101u, 0b110u, 0b111u}) {
        cases.push_back(PropertyCase{bits, full_range, mask});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigsAllPatterns, BitAddressEquivalence,
    ::testing::ValuesIn(property_cases()),
    [](const ::testing::TestParamInfo<PropertyCase>& info) {
      std::string name = "ic";
      for (const auto b : info.param.bits) {
        name += std::to_string(static_cast<int>(b));
      }
      name += info.param.full_range ? "_range" : "_hash";
      name += "_ap" + std::to_string(info.param.probe_mask);
      return name;
    });

// Insert/erase interleavings must leave the index consistent with a scan.
class BitAddressChurn : public ::testing::TestWithParam<int> {};

TEST_P(BitAddressChurn, InterleavedInsertEraseStaysConsistent) {
  const JoinAttributeSet jas({0, 1, 2});
  BitAddressIndex bai(jas, IndexConfig({3, 2, 1}));
  ScanIndex scan(jas);
  testutil::TuplePool pool(300, 3, 15, static_cast<std::uint64_t>(GetParam()));
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 1);

  std::vector<const Tuple*> live;
  const auto all = pool.pointers();
  std::size_t next = 0;
  for (int step = 0; step < 600; ++step) {
    const bool insert = live.empty() || (next < all.size() && rng.chance(0.6));
    if (insert && next < all.size()) {
      bai.insert(all[next]);
      scan.insert(all[next]);
      live.push_back(all[next]);
      ++next;
    } else if (!live.empty()) {
      const std::size_t victim = rng.below(live.size());
      bai.erase(live[victim]);
      scan.erase(live[victim]);
      live[victim] = live.back();
      live.pop_back();
    }
  }
  EXPECT_EQ(bai.size(), live.size());

  for (int trial = 0; trial < 10; ++trial) {
    ProbeKey key;
    key.mask = static_cast<AttrMask>(rng.below(8));
    key.values.resize(3, 0);
    for_each_bit(key.mask, [&](unsigned pos) {
      key.values[pos] = static_cast<Value>(rng.below(15));
    });
    std::vector<const Tuple*> via_bai;
    std::vector<const Tuple*> via_scan;
    bai.probe(key, via_bai);
    scan.probe(key, via_scan);
    std::set<const Tuple*> a(via_bai.begin(), via_bai.end());
    std::set<const Tuple*> b(via_scan.begin(), via_scan.end());
    EXPECT_EQ(a, b);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitAddressChurn, ::testing::Range(1, 9));

}  // namespace
}  // namespace amri::index
