// Ordered (tree-style) single-attribute index: the classic alternative the
// bit-address literature compares against for partial-match and range
// retrieval [22, 24]. Keeps tuples in a std::multimap keyed by one join
// attribute; equality probes hit one key run, range probes walk a
// contiguous key interval. Serves as a baseline in the range-probe
// micro-benchmarks and as a building block for users who need ordered
// retrieval on a hot attribute.
#pragma once

#include <map>

#include "index/tuple_index.hpp"

namespace amri::index {

class OrderedIndex final : public TupleIndex {
 public:
  /// Index on JAS position `key_pos` of `jas`.
  OrderedIndex(JoinAttributeSet jas, std::size_t key_pos,
               CostMeter* meter = nullptr, MemoryTracker* memory = nullptr);

  ~OrderedIndex() override;

  OrderedIndex(const OrderedIndex&) = delete;
  OrderedIndex& operator=(const OrderedIndex&) = delete;

  std::size_t key_pos() const { return key_pos_; }

  void insert(const Tuple* t) override;
  void erase(const Tuple* t) override;

  /// Equality probe; the key attribute must be bound (assert). Remaining
  /// bound attributes are verified per candidate.
  ProbeStats probe(const ProbeKey& key, std::vector<const Tuple*>& out) override;

  /// Range probe over the key attribute: walks keys in [key.los, key.his]
  /// of the key position; other bound intervals are verified.
  ProbeStats probe_range(const RangeProbeKey& key,
                         std::vector<const Tuple*>& out);

  std::size_t size() const override { return table_.size(); }
  std::size_t memory_bytes() const override;
  std::string name() const override;
  void clear() override;

 private:
  void sync_memory();
  /// A probe's tree descent (modelled as one hash), bucket visit and
  /// comparisons, charged once after the walk.
  void charge_probe(const ProbeStats& stats);

  JoinAttributeSet jas_;
  std::size_t key_pos_;
  CostMeter* meter_;
  MemoryTracker* memory_;
  std::multimap<Value, const Tuple*> table_;
  std::size_t tracked_bytes_ = 0;
};

}  // namespace amri::index
