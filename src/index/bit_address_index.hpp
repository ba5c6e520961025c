// The AMRI physical index (paper §III): a single bit-address index whose
// index configuration (IC) assigns bits of the bucket id to join
// attributes. One structure serves every access pattern:
//   * a probe binding all indexed attributes touches exactly one bucket;
//   * unbound indexed attributes become wildcards — the probe enumerates
//     the 2^(wildcard bits) candidate buckets (or, when cheaper, filters
//     the sparse bucket directory by the fixed bit positions);
//   * attributes without bits contribute nothing to the bucket id and are
//     verified by the final comparison pass.
// Every stored entry carries a signature of its join-attribute values, so a
// probe of any access pattern rejects most non-matching entries in bucket
// memory before it dereferences a tuple (the modelled comparison is charged
// either way). On a one-position JAS the signature is the whole mix64 of
// the value, so it decides the match alone and no tuple is dereferenced.
//
// Buckets are stored sparsely in a flat open-addressing directory
// (index/bucket_directory.hpp), so the bucket-id word can be wide while
// memory tracks only occupied slots, and small buckets stay heap-free.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "index/bucket_directory.hpp"
#include "index/index_config.hpp"
#include "index/tuple_index.hpp"
#include "telemetry/telemetry.hpp"

namespace amri::index {

/// The `bits`-bit chunk that value `v` of JAS position `pos` contributes to
/// a bucket id (0 when `bits` is 0): the value plus a per-position salt, so
/// equal values in different positions land in different cells, mixed by
/// the murmur3 fmix64 finalizer, then its top `bits` bits. Changing it
/// moves every bucket id, and with them compares and charged cost.
inline std::uint64_t value_bits(std::size_t pos, Value v, int bits) {
  assert(bits >= 0 && bits <= 63);
  if (bits == 0) return 0;
  const std::uint64_t salt = 0x9e3779b97f4a7c15ULL * (pos + 1);
  std::uint64_t h = static_cast<std::uint64_t>(v) + salt;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h >> (64 - bits);
}

class BitAddressIndex final : public TupleIndex {
 public:
  /// `jas` maps JAS positions to tuple attribute ids; `config.num_attrs()`
  /// must equal `jas.size()`. `meter`/`memory` may be null (uncharged).
  BitAddressIndex(JoinAttributeSet jas, IndexConfig config,
                  CostMeter* meter = nullptr, MemoryTracker* memory = nullptr);

  ~BitAddressIndex() override;

  BitAddressIndex(const BitAddressIndex&) = delete;
  BitAddressIndex& operator=(const BitAddressIndex&) = delete;

  const IndexConfig& config() const { return config_; }
  const JoinAttributeSet& jas() const { return jas_; }

  /// Bucket id of a stored tuple under the current IC. Charges one hash per
  /// indexed attribute (the paper's N_A · C_h insert-side hashing).
  BucketId bucket_of(const Tuple& t);

  void insert(const Tuple* t) override;
  void erase(const Tuple* t) override;

  /// Insert `n` tuples, equivalent to n insert() calls in order (same
  /// charges, same telemetry, same directory state), with one memory sync
  /// for the batch.
  void insert_batch(const Tuple* const* tuples, std::size_t n);

  /// Erase `n` tuples, equivalent to n erase() calls in order, with one
  /// memory sync for the batch (window expiry erases a run of the oldest
  /// tuples at once).
  void erase_batch(const Tuple* const* tuples, std::size_t n);
  ProbeStats probe(const ProbeKey& key, std::vector<const Tuple*>& out) override;

  std::size_t size() const override { return size_; }
  std::size_t memory_bytes() const override;
  std::string name() const override;

  /// Number of occupied buckets (sparse directory size).
  std::size_t occupied_buckets() const { return buckets_.size(); }

  /// The flat directory behind the index (tests and diagnostics).
  const BucketDirectory& directory() const { return buckets_; }

  /// Register probe/occupancy instrumentation under `prefix` (e.g.
  /// "stem.0.index") in `telemetry`'s registry. Null detaches. The hot
  /// paths only ever pay a null-pointer branch when detached.
  void bind_telemetry(telemetry::Telemetry* telemetry,
                      const std::string& prefix);

  /// Bucket balance diagnostics (paper §III: "the optimal index key map is
  /// configured so that no bucket stores more tuples than any other").
  /// `imbalance` = max / mean over occupied buckets; 1.0 is perfect.
  struct OccupancyStats {
    std::size_t occupied = 0;
    std::size_t tuples = 0;
    std::size_t min = 0;
    std::size_t max = 0;
    double mean = 0.0;
    double stddev = 0.0;
    double imbalance = 0.0;
  };
  OccupancyStats occupancy() const;

  /// Set the `<prefix>.occupancy.imbalance` gauge to occupancy().imbalance
  /// (a walk of the directory). A no-op when detached. reconfigure() calls
  /// it; the run loop refreshes it through the STeM at each sample.
  void refresh_occupancy_gauge();

  /// Visit every stored tuple (used by migration and full scans).
  template <typename Fn>
  void for_each_tuple(Fn&& fn) const {
    buckets_.for_each([&](BucketId, const Bucket& bucket) {
      for (const BucketEntry& e : bucket) fn(e.tuple);
    });
  }

  /// Replace the IC and re-bucket every stored tuple (the paper's index
  /// adaptation: relocate each tuple to the buckets defined by the new IC).
  /// Charges one hash per indexed attribute of the new IC per tuple, in one
  /// charge after the rebuild.
  void reconfigure(const IndexConfig& new_config);

  /// Deep structural validation: directory/count consistency, every stored
  /// tuple rehashes to its bucket, bucket ids fit in total_bits, and the
  /// memory-tracker bookkeeping matches. Aborts with a diagnostic on the
  /// first violation. Always compiled (tests call it in every build);
  /// structural transition points invoke it automatically only under
  /// AMRI_ASSERTIONS. Does not charge the cost meter.
  void check_invariants() const;

 private:
  using Bucket = BucketDirectory::Bucket;

  /// Probe layout: the fixed bits contributed by bound attributes, the
  /// number of wildcard bits to enumerate, and the signature an entry must
  /// carry to be worth verifying (`(tag & sig_mask) == sig`).
  struct ProbeLayout {
    BucketId fixed = 0;          ///< bound-attribute bits in place
    BucketId fixed_mask = 0;     ///< which bucket-id bits are fixed
    int wildcard_bits = 0;       ///< total unbound indexed bits
    std::uint64_t sig = 0;       ///< bound positions' signature chunks
    std::uint64_t sig_mask = 0;  ///< bits of the bound positions' chunks
  };

  ProbeLayout layout_for(const ProbeKey& key);
  /// bucket_of without meter charges (invariants, and the batched
  /// insert/erase and reconfigure, which charge once per call).
  BucketId bucket_of_uncharged(const Tuple& t) const;
  /// Value signature of JAS position `pos` holding `v`: the top
  /// sig_width_ bits of mix64(v), shifted to the position's chunk at
  /// pos * sig_width_. Equal values give equal chunks, so the signature
  /// filter never rejects a match; at sig_width_ 64 (one position) unequal
  /// values give unequal chunks too, so it never accepts a non-match.
  std::uint64_t value_chunk(std::size_t pos, Value v) const;
  /// A stored tuple's signature: every JAS position's chunk. Probes of any
  /// access pattern test the chunks of their bound positions against it
  /// before dereferencing the tuple.
  std::uint64_t tuple_tag(const Tuple& t) const;
  /// Sync tracked_bytes_ (and the MemoryTracker) to memory_bytes().
  void sync_memory();

  JoinAttributeSet jas_;
  IndexConfig config_;
  CostMeter* meter_;
  MemoryTracker* memory_;
  /// Signature bits per JAS position: floor(64 / |JAS|), all 64 for a
  /// one-position JAS (AttrMask caps the JAS at 32 positions).
  int sig_width_;
  BucketDirectory buckets_;
  std::size_t size_ = 0;
  std::size_t tracked_bytes_ = 0;
  // Telemetry instruments (null when detached; see bind_telemetry).
  telemetry::Telemetry* telemetry_ = nullptr;
  telemetry::Histogram* wildcard_hist_ = nullptr;  ///< buckets enumerable/probe
  telemetry::Histogram* chain_hist_ = nullptr;     ///< bucket size after insert
  telemetry::Counter* probes_enumerated_ = nullptr;
  telemetry::Counter* probes_filtered_ = nullptr;
  telemetry::Gauge* imbalance_gauge_ = nullptr;
};

}  // namespace amri::index
