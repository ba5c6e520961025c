// Full-scan "index": no structure at all, every probe compares every stored
// tuple. This is the fallback when no access module serves a probe and the
// degenerate case of a zero-bit IC; it anchors the cost comparisons.
#pragma once

#include <vector>

#include "index/tuple_index.hpp"

namespace amri::index {

class ScanIndex final : public TupleIndex {
 public:
  explicit ScanIndex(JoinAttributeSet jas, CostMeter* meter = nullptr,
                     MemoryTracker* memory = nullptr);

  ~ScanIndex() override;

  ScanIndex(const ScanIndex&) = delete;
  ScanIndex& operator=(const ScanIndex&) = delete;

  void insert(const Tuple* t) override;
  void erase(const Tuple* t) override;
  ProbeStats probe(const ProbeKey& key, std::vector<const Tuple*>& out) override;

  std::size_t size() const override { return tuples_.size(); }
  std::size_t memory_bytes() const override {
    return tuples_.capacity() * sizeof(const Tuple*);
  }
  std::string name() const override { return "scan"; }

 private:
  void sync_memory();

  JoinAttributeSet jas_;
  CostMeter* meter_;
  MemoryTracker* memory_;
  std::vector<const Tuple*> tuples_;
  std::size_t tracked_bytes_ = 0;
};

}  // namespace amri::index
