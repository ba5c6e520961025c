// The bit-address index's bucket directory: an open-addressing flat hash
// table from bucket id to bucket, purpose-built for the index hot path
// (paper §III: maintenance and probe cost of the one shared index *are*
// the system's inner loop).
//
// Design:
//   * power-of-two capacity, linear probing over a contiguous slot array —
//     one cache line per probe step instead of a chained-node pointer
//     chase;
//   * tombstone-free backward-shift deletion, so long-lived sliding-window
//     churn (insert+expire forever) never degrades probe distances;
//   * buckets hold their first kInlineBucketTuples tuple pointers inline
//     (SmallVector), so the dominant 1-2 tuple buckets touch no heap at
//     all — the old unordered_map directory paid a node allocation plus a
//     vector heap allocation for every occupied bucket;
//   * a slot is occupied iff its bucket is non-empty (the directory never
//     retains empty buckets, mirroring the index invariant), so no
//     separate metadata array is needed;
//   * O(1) capacity-aware memory accounting: the slot array plus every
//     bucket's heap capacity, maintained incrementally.
//
// Iteration (for_each) walks the slot array in index order: deterministic
// for a fixed operation history, and exactly what the index's
// filter-by-fixed-bits probe fallback and for_each_tuple need.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assertions.hpp"
#include "common/bitops.hpp"
#include "common/small_vector.hpp"
#include "common/tuple.hpp"
#include "common/types.hpp"

namespace amri::index {

/// Tuple entries stored inline per bucket before spilling to the heap.
inline constexpr std::size_t kInlineBucketTuples = 2;

/// One stored tuple plus a signature of its join-attribute values (the
/// owning index defines its layout: one chunk of bits per JAS position).
/// Every probe compares the chunks of its bound positions first and only
/// dereferences tuples whose chunks match, so a mismatching entry is
/// rejected in bucket memory without a random touch of the tuple or of
/// its heap-spilled values.
struct BucketEntry {
  const Tuple* tuple = nullptr;
  std::uint64_t tag = 0;
};
// Memory accounting (and so peak_memory_mb) counts entries at this size.
static_assert(sizeof(BucketEntry) == 16);

class BucketDirectory {
 public:
  using Bucket = SmallVector<BucketEntry, kInlineBucketTuples>;

  BucketDirectory() = default;

  BucketDirectory(const BucketDirectory&) = delete;
  BucketDirectory& operator=(const BucketDirectory&) = delete;
  BucketDirectory(BucketDirectory&&) = default;
  BucketDirectory& operator=(BucketDirectory&&) = default;

  /// Number of occupied buckets.
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Slot-array capacity (0 until the first insert; power of two after).
  std::size_t capacity() const { return slots_.size(); }

  /// Append `t` (with its value signature) to `key`'s bucket, creating the
  /// bucket if absent. Returns the bucket's size after the append (the
  /// chain length telemetry observes).
  std::size_t insert(BucketId key, const Tuple* t, std::uint64_t tag = 0) {
    if (size_ + 1 > max_load(slots_.size())) {
      grow(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home_slot(key);
    while (true) {
      Slot& s = slots_[i];
      if (s.bucket.empty()) {
        s.key = key;
        ++size_;
        append(s.bucket, BucketEntry{t, tag});
        return 1;
      }
      if (s.key == key) {
        append(s.bucket, BucketEntry{t, tag});
        return s.bucket.size();
      }
      i = (i + 1) & mask;
    }
  }

  /// Remove `t` from `key`'s bucket (swap-with-last, matching the old
  /// directory's erase order). An emptied bucket's slot is removed via
  /// backward shift. Returns false if the key or tuple is absent.
  bool erase(BucketId key, const Tuple* t) {
    Slot* s = find_slot(key);
    if (s == nullptr) return false;
    Bucket& bucket = s->bucket;
    const auto pos =
        std::find_if(bucket.begin(), bucket.end(),
                     [t](const BucketEntry& e) { return e.tuple == t; });
    if (pos == bucket.end()) return false;
    *pos = bucket.back();
    bucket.pop_back();
    if (bucket.empty()) {
      bucket_heap_bytes_ -= heap_bytes(bucket);
      remove_slot(static_cast<std::size_t>(s - slots_.data()));
      --size_;
    }
    return true;
  }

  /// The bucket stored under `key`, or null. Never returns empty buckets.
  const Bucket* find(BucketId key) const {
    const Slot* s = const_cast<BucketDirectory*>(this)->find_slot(key);
    return s == nullptr ? nullptr : &s->bucket;
  }

  /// Ensure capacity for `buckets` occupied buckets without rehashing.
  void reserve(std::size_t buckets) {
    std::size_t cap = slots_.empty() ? kMinCapacity : slots_.size();
    while (buckets > max_load(cap)) cap *= 2;
    if (cap > slots_.size()) grow(cap);
  }

  /// Drop every bucket and release all storage (capacity returns to 0).
  void clear() {
    slots_.clear();
    slots_.shrink_to_fit();
    size_ = 0;
    bucket_heap_bytes_ = 0;
  }

  /// Logical bytes: the whole slot array (capacity-aware — empty slots are
  /// real memory) plus heap-spilled bucket storage. O(1).
  std::size_t memory_bytes() const {
    return slots_.size() * sizeof(Slot) + bucket_heap_bytes_;
  }

  /// Visit every occupied bucket as fn(BucketId, const Bucket&), in slot
  /// order. The directory must not be mutated during the walk.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (!s.bucket.empty()) fn(s.key, s.bucket);
    }
  }

  /// Deep structural validation: capacity is a power of two, size_ matches
  /// the occupied-slot count, every occupied slot is reachable by its
  /// probe sequence (no hole between home and slot — the invariant
  /// backward-shift deletion maintains), keys are unique, and the
  /// incremental heap-byte accounting matches a recount. Aborts with a
  /// diagnostic on the first violation.
  void check_invariants() const {
    AMRI_CHECK(slots_.empty() || (slots_.size() & (slots_.size() - 1)) == 0,
               "directory capacity must be a power of two");
    AMRI_CHECK(size_ <= max_load(slots_.size()),
               "directory exceeds its maximum load factor");
    std::size_t occupied = 0;
    std::size_t heap = 0;
    std::vector<BucketId> keys;
    const std::size_t mask = slots_.empty() ? 0 : slots_.size() - 1;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const Slot& s = slots_[i];
      if (s.bucket.empty()) continue;
      ++occupied;
      heap += heap_bytes(s.bucket);
      keys.push_back(s.key);
      // Probe-path integrity: walking from the key's home slot must reach
      // slot i before any empty slot.
      for (std::size_t j = home_slot(s.key); j != i; j = (j + 1) & mask) {
        AMRI_CHECK(!slots_[j].bucket.empty(),
                   "hole in a probe sequence: key unreachable after a "
                   "deletion failed to backward-shift");
      }
    }
    AMRI_CHECK(occupied == size_,
               "directory size_ disagrees with the occupied-slot count");
    AMRI_CHECK(heap == bucket_heap_bytes_,
               "incremental bucket heap-byte accounting is stale");
    std::sort(keys.begin(), keys.end());
    AMRI_CHECK(std::adjacent_find(keys.begin(), keys.end()) == keys.end(),
               "duplicate bucket id stored in two slots");
  }

 private:
  struct Slot {
    BucketId key = 0;
    Bucket bucket;
  };

  static constexpr std::size_t kMinCapacity = 16;

  /// Maximum occupied buckets for a capacity: 7/8 load factor.
  static constexpr std::size_t max_load(std::size_t cap) {
    return cap - cap / 8;
  }

  /// Bucket ids are bit-concatenations of value_bits chunks, so low bits alone
  /// cluster badly under a power-of-two mask: mix them first.
  std::size_t home_slot(BucketId key) const {
    return mix64(key) & (slots_.size() - 1);
  }

  static std::size_t heap_bytes(const Bucket& b) {
    return b.is_inline() ? 0 : b.capacity() * sizeof(BucketEntry);
  }

  /// push_back with incremental heap accounting (inline→heap spill and
  /// heap growth both land in bucket_heap_bytes_).
  void append(Bucket& b, const BucketEntry& e) {
    const std::size_t before = heap_bytes(b);
    b.push_back(e);
    bucket_heap_bytes_ += heap_bytes(b) - before;
  }

  Slot* find_slot(BucketId key) {
    if (slots_.empty()) return nullptr;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home_slot(key);
    while (!slots_[i].bucket.empty()) {
      if (slots_[i].key == key) return &slots_[i];
      i = (i + 1) & mask;
    }
    return nullptr;
  }

  /// Backward-shift deletion: close the hole at `hole` by sliding every
  /// displaced follower one step toward its home slot; no tombstones, so
  /// probe distances stay tight forever.
  void remove_slot(std::size_t hole) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t next = (hole + 1) & mask;
    while (!slots_[next].bucket.empty()) {
      const std::size_t home = home_slot(slots_[next].key);
      // The follower may move into the hole iff its home does not lie
      // cyclically after the hole (moving it would otherwise break its
      // own probe path).
      if (((next - home) & mask) >= ((next - hole) & mask)) {
        slots_[hole].key = slots_[next].key;
        slots_[hole].bucket = std::move(slots_[next].bucket);
        hole = next;
      }
      next = (next + 1) & mask;
    }
    slots_[hole].bucket = Bucket();  // release any heap shell, mark empty
  }

  void grow(std::size_t new_cap) {
    std::vector<Slot> old = std::move(slots_);
    slots_ = std::vector<Slot>(new_cap);
    const std::size_t mask = new_cap - 1;
    for (Slot& s : old) {
      if (s.bucket.empty()) continue;
      std::size_t i = home_slot(s.key);
      while (!slots_[i].bucket.empty()) i = (i + 1) & mask;
      slots_[i].key = s.key;
      slots_[i].bucket = std::move(s.bucket);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;              ///< occupied buckets
  std::size_t bucket_heap_bytes_ = 0; ///< heap-spilled bucket capacity bytes
};

}  // namespace amri::index
