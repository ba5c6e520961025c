// Index configurations (the paper's "index key map" IC): how many bucket-id
// bits each join attribute contributes. Given B total bits the index has
// 2^B logical buckets; a tuple's bucket id is the concatenation of the
// per-attribute bit chunks.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/bitops.hpp"
#include "common/small_vector.hpp"

namespace amri::index {

class IndexConfig {
 public:
  static constexpr int kMaxTotalBits = 30;  ///< keeps 2^B enumerable

  IndexConfig() = default;
  explicit IndexConfig(std::vector<std::uint8_t> bits_per_attr);

  /// Convenience: all-zero config over `n` attributes (pure scan).
  static IndexConfig zero(std::size_t n) {
    return IndexConfig(std::vector<std::uint8_t>(n, 0));
  }

  std::size_t num_attrs() const { return bits_.size(); }
  int bits(std::size_t jas_pos) const { return bits_[jas_pos]; }
  int total_bits() const { return total_bits_; }

  /// Number of attributes with at least one bit (the paper's N_A).
  int indexed_attr_count() const { return indexed_attrs_; }

  /// Mask of JAS positions with at least one bit assigned.
  AttrMask indexed_mask() const { return indexed_mask_; }

  /// Bits assigned to the attributes in `mask` (the paper's B_ap for
  /// mask = attrs specified in ap).
  int bits_for(AttrMask mask) const;

  /// Bit shift (position within the bucket id) of attribute `jas_pos`'s
  /// chunk. Chunks are laid out lowest-JAS-position at the highest shift,
  /// mirroring the paper's concatenation order (A1 bits, then A2, then A3).
  int shift_of(std::size_t jas_pos) const { return shifts_[jas_pos]; }

  /// Total logical buckets, 2^total_bits.
  std::uint64_t bucket_count() const { return pow2_saturating(total_bits_); }

  bool operator==(const IndexConfig& o) const { return bits_ == o.bits_; }
  bool operator!=(const IndexConfig& o) const { return !(*this == o); }

  /// e.g. "[A:5 B:2 C:3]" (generic letter names).
  std::string to_string() const;

 private:
  std::vector<std::uint8_t> bits_;
  std::vector<int> shifts_;
  int total_bits_ = 0;
  int indexed_attrs_ = 0;
  AttrMask indexed_mask_ = 0;
};

/// Enumerate every allocation of at most `budget` bits over `num_attrs`
/// attributes with at most `max_per_attr` bits each, invoking `fn` for each
/// allocation (including the all-zero one), position 0 outermost and bits
/// ascending. The count is C(budget + n, n) without per-attribute caps.
/// IndexOptimizer::optimize walks the same order with its own
/// allocation-free kernel; this is the tests' brute-force reference.
void enumerate_allocations(
    std::size_t num_attrs, int budget, int max_per_attr,
    const std::function<void(const std::vector<std::uint8_t>&)>& fn);

}  // namespace amri::index
