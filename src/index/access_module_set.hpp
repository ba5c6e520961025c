// The multi-hash-index baseline (paper §I-A, Raman et al. [5]): a state
// carries several hash-index "access modules", one per supported attribute
// combination. A probe picks the most suitable module — the one whose key
// attributes are all bound and are the most numerous — and falls back to a
// full scan when no module serves the probe's access pattern.
//
// Maintenance touches *every* module per insert/delete, and each module
// stores its own key link per tuple: this is the memory/maintenance
// overhead the paper shows exhausting the system.
#pragma once

#include <memory>
#include <vector>

#include "index/hash_index.hpp"
#include "index/scan_index.hpp"
#include "index/tuple_index.hpp"

namespace amri::index {

class AccessModuleSet final : public TupleIndex {
 public:
  /// One HashIndex per mask in `module_masks` (each non-zero). A ScanIndex
  /// backs probes no module serves.
  AccessModuleSet(JoinAttributeSet jas, std::vector<AttrMask> module_masks,
                  CostMeter* meter = nullptr, MemoryTracker* memory = nullptr);

  /// Masks of the current modules, in construction order.
  std::vector<AttrMask> module_masks() const;
  std::size_t module_count() const { return modules_.size(); }

  /// The module that would serve `probe_mask`, or nullptr (=> full scan).
  /// "Most suitable": serves the probe and has the largest key-attr count;
  /// ties break on the smaller mask for determinism.
  const HashIndex* module_for(AttrMask probe_mask) const;

  void insert(const Tuple* t) override;
  void erase(const Tuple* t) override;
  ProbeStats probe(const ProbeKey& key, std::vector<const Tuple*>& out) override;

  std::size_t size() const override { return scan_.size(); }
  std::size_t memory_bytes() const override;
  std::string name() const override;

  /// Count of probes answered by full scan (no suitable module).
  std::uint64_t scan_fallbacks() const { return scan_fallbacks_; }

  /// Replace the module set (index tuning for the baseline): drops modules
  /// not in `new_masks`, builds new ones from the stored tuples. Rebuild
  /// hashing is charged to the meter.
  void retune(const std::vector<AttrMask>& new_masks);

 private:
  JoinAttributeSet jas_;
  CostMeter* meter_;
  MemoryTracker* memory_;
  std::vector<std::unique_ptr<HashIndex>> modules_;
  ScanIndex scan_;  ///< master tuple list + fallback path
  std::uint64_t scan_fallbacks_ = 0;
};

}  // namespace amri::index
