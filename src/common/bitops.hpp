// Bit-manipulation helpers used by access-pattern masks and the
// bit-address index (bucket-id construction, wildcard enumeration and
// value signatures).
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>

namespace amri {

/// A set of attributes represented as a bitmask: bit i set means attribute i
/// is a member. This is exactly the paper's BR(ap) binary representation of
/// an access pattern.
using AttrMask = std::uint32_t;

/// Number of set bits (attributes) in a mask.
constexpr int popcount(AttrMask m) { return std::popcount(m); }

/// Mask with the lowest `n` bits set, n in [0, 32]. The n == 32 case takes
/// the guarded branch — a plain 32-wide shift on a 32-bit operand is UB.
constexpr AttrMask low_bits(int n) {
  assert(n >= 0 && n <= 32);
  return (n >= 32) ? ~AttrMask{0} : ((AttrMask{1} << n) - 1u);
}

/// 64-bit variant used for bucket-id bit fields.
constexpr std::uint64_t low_bits64(int n) {
  assert(n >= 0 && n <= 64);
  return (n >= 64) ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1u);
}

/// 2^n for n in [0, 63]; n >= 64 saturates to UINT64_MAX instead of
/// invoking UB via an oversized shift. Used for wildcard enumeration
/// counts, where saturation simply means "too many to enumerate — filter
/// the sparse directory instead".
constexpr std::uint64_t pow2_saturating(int n) {
  assert(n >= 0);
  return n >= 64 ? ~std::uint64_t{0} : std::uint64_t{1} << n;
}

/// SplitMix64 finalizer, a bijection on 64-bit words. The bucket directory
/// spreads bucket ids over its slots with it, the sharded index routes a
/// value to its shard with it, and the bit-address index builds value
/// signatures from it. Changing it moves every home slot and shard route.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// True iff `sub` is a subset of `super` (every attribute of sub in super).
constexpr bool is_subset(AttrMask sub, AttrMask super) {
  return (sub & ~super) == 0;
}

/// True iff bit `i` is set.
constexpr bool has_bit(AttrMask m, unsigned i) { return (m >> i) & 1u; }

/// Iterate over all non-empty subsets of `mask` in decreasing numeric order.
/// Usage:
///   for (AttrMask s = mask; s != 0; s = next_subset(s, mask)) { ... }
constexpr AttrMask next_subset(AttrMask current, AttrMask mask) {
  return (current - 1) & mask;
}

/// Calls `fn(submask)` for every subset of `mask`, including the empty set
/// and `mask` itself. Order: mask, then strictly decreasing, ending at 0.
template <typename Fn>
constexpr void for_each_subset(AttrMask mask, Fn&& fn) {
  AttrMask s = mask;
  while (true) {
    fn(s);
    if (s == 0) break;
    s = (s - 1) & mask;
  }
}

/// Calls `fn(i)` for each set bit index i in `mask`, lowest first.
template <typename Fn>
constexpr void for_each_bit(AttrMask mask, Fn&& fn) {
  while (mask != 0) {
    const unsigned i = static_cast<unsigned>(std::countr_zero(mask));
    fn(i);
    mask &= mask - 1;  // clear lowest set bit
  }
}

/// Index of the lowest set bit; mask must be non-zero.
constexpr unsigned lowest_bit(AttrMask mask) {
  assert(mask != 0);
  return static_cast<unsigned>(std::countr_zero(mask));
}

/// Binomial coefficient C(n, k) for the small n used by access-pattern math
/// (n <= 30). Returns 0 when k > n.
constexpr std::uint64_t binomial(unsigned n, unsigned k) {
  if (k > n) return 0;
  if (k > n - k) k = n - k;
  std::uint64_t r = 1;
  for (unsigned i = 1; i <= k; ++i) {
    r = r * (n - k + i) / i;
  }
  return r;
}

}  // namespace amri
