// Access patterns over a state's join attribute set (JAS).
//
// A state indexes a fixed ordered list of join attributes; an access pattern
// is the subset of those attributes bound by a search request, represented
// as a bitmask over JAS positions — exactly the paper's BR(ap) binary
// representation (<A,*,C> over JAS {A,B,C} -> mask 0b101).
#pragma once

#include <string>
#include <vector>

#include "common/bitops.hpp"
#include "common/small_vector.hpp"
#include "common/tuple.hpp"
#include "common/types.hpp"

namespace amri::index {

/// The join attribute set of a state: JAS position -> tuple attribute id.
class JoinAttributeSet {
 public:
  JoinAttributeSet() = default;
  explicit JoinAttributeSet(std::vector<AttrId> attrs)
      : attrs_(std::move(attrs)) {}

  std::size_t size() const { return attrs_.size(); }
  AttrId tuple_attr(std::size_t jas_pos) const { return attrs_[jas_pos]; }
  const std::vector<AttrId>& attrs() const { return attrs_; }

  /// Mask with every JAS position set.
  AttrMask universe() const { return low_bits(static_cast<int>(attrs_.size())); }

  /// JAS position of tuple attribute `a`, or size() if not a join attribute.
  std::size_t position_of(AttrId a) const {
    for (std::size_t i = 0; i < attrs_.size(); ++i) {
      if (attrs_[i] == a) return i;
    }
    return attrs_.size();
  }

 private:
  std::vector<AttrId> attrs_;
};

/// A concrete probe: which JAS positions are bound (the access pattern) and
/// the value each bound position must equal. `values` is JAS-sized; slots
/// whose mask bit is clear are ignored.
struct ProbeKey {
  AttrMask mask = 0;
  SmallVector<Value, kInlineAttrs> values;

  /// Number of bound attributes (the paper's N_{A,ap} when all indexed).
  int bound_count() const { return popcount(mask); }

  /// True iff `t` matches every bound attribute. `jas` maps JAS positions
  /// to tuple attribute ids.
  bool matches(const Tuple& t, const JoinAttributeSet& jas) const {
    bool ok = true;
    for_each_bit(mask, [&](unsigned pos) {
      if (t.at(jas.tuple_attr(pos)) != values[pos]) ok = false;
    });
    return ok;
  }
};

/// Render a mask as the paper's vector notation, e.g. <A,*,C> for
/// mask=0b101 with names {A,B,C}. Names default to A,B,C,... when omitted.
std::string pattern_to_string(AttrMask mask, std::size_t num_attrs,
                              const std::vector<std::string>* names = nullptr);

/// Build a ProbeKey binding the JAS positions in `mask` to the
/// corresponding join-attribute values of `t` (used when a routed tuple
/// probes a peer state: the tuple's values become the search criteria).
ProbeKey probe_from_tuple(AttrMask mask, const Tuple& t,
                          const JoinAttributeSet& probing_side_attrs);

}  // namespace amri::index
