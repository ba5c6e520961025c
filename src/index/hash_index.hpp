// A single hash index over a fixed subset of a state's join attributes —
// one "access module" of the Raman et al. STeM design (paper §I-A).
//
// Every insert computes and stores a hash key linking to the tuple, which
// is exactly the per-tuple, per-index memory and maintenance cost the paper
// identifies as the weakness of the multi-hash approach.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "index/tuple_index.hpp"

namespace amri::index {

class HashIndex final : public TupleIndex {
 public:
  /// `key_mask` selects which JAS positions this index hashes.
  HashIndex(JoinAttributeSet jas, AttrMask key_mask,
            CostMeter* meter = nullptr, MemoryTracker* memory = nullptr);

  ~HashIndex() override;

  HashIndex(const HashIndex&) = delete;
  HashIndex& operator=(const HashIndex&) = delete;

  AttrMask key_mask() const { return key_mask_; }

  /// True iff this index can serve `probe_mask`: every key attribute is
  /// bound by the probe (index attrs ⊆ probe attrs).
  bool serves(AttrMask probe_mask) const {
    return is_subset(key_mask_, probe_mask);
  }

  void insert(const Tuple* t) override;
  void erase(const Tuple* t) override;

  /// Insert many tuples at once (a module rebuild), with the same result
  /// and charges as sequential insert() calls, charged and memory-synced
  /// once.
  void bulk_load(const std::vector<const Tuple*>& tuples);

  /// Caller must ensure serves(key.mask); verified matches are appended.
  ProbeStats probe(const ProbeKey& key, std::vector<const Tuple*>& out) override;

  std::size_t size() const override { return size_; }
  std::size_t memory_bytes() const override;
  std::string name() const override;

 private:
  /// Hash of the key attributes; callers charge key_hashes() per key.
  std::uint64_t hash_tuple(const Tuple& t) const;
  std::uint64_t hash_key(const ProbeKey& key) const;
  /// Hashes one key computation costs: one per key attribute.
  std::uint64_t key_hashes() const {
    return static_cast<std::uint64_t>(popcount(key_mask_));
  }
  /// Sync tracked_bytes_ (and the MemoryTracker) to memory_bytes().
  void sync_memory();

  JoinAttributeSet jas_;
  AttrMask key_mask_;
  CostMeter* meter_;
  MemoryTracker* memory_;
  std::unordered_multimap<std::uint64_t, const Tuple*> table_;
  std::size_t size_ = 0;
  std::size_t tracked_bytes_ = 0;
};

}  // namespace amri::index
