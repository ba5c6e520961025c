// The AMRI physical index (paper §III): a single bit-address index whose
// index configuration (IC) assigns bits of the bucket id to join
// attributes. One structure serves every access pattern:
//   * a probe binding all indexed attributes touches exactly one bucket;
//   * unbound indexed attributes become wildcards — the probe enumerates
//     the 2^(wildcard bits) candidate buckets (or, when cheaper, filters
//     the sparse bucket directory by the fixed bit positions);
//   * attributes without bits contribute nothing and are verified by the
//     final comparison pass.
//
// Buckets are stored sparsely in a flat open-addressing directory
// (index/bucket_directory.hpp), so the bucket-id word can be wide while
// memory tracks only occupied slots, and small buckets stay heap-free.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "index/bit_mapper.hpp"
#include "index/bucket_directory.hpp"
#include "index/index_config.hpp"
#include "index/tuple_index.hpp"
#include "telemetry/telemetry.hpp"

namespace amri::index {

class BitAddressIndex final : public TupleIndex {
 public:
  /// `jas` maps JAS positions to tuple attribute ids; `config.num_attrs()`
  /// must equal `jas.size()`. `meter`/`memory` may be null (uncharged).
  BitAddressIndex(JoinAttributeSet jas, IndexConfig config, BitMapper mapper,
                  CostMeter* meter = nullptr, MemoryTracker* memory = nullptr);

  ~BitAddressIndex() override;

  BitAddressIndex(const BitAddressIndex&) = delete;
  BitAddressIndex& operator=(const BitAddressIndex&) = delete;

  const IndexConfig& config() const { return config_; }
  const JoinAttributeSet& jas() const { return jas_; }
  const BitMapper& mapper() const { return mapper_; }

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

  /// Batched probe: groups keys by access pattern so the per-mask work —
  /// fixed-bit layout, enumerate-vs-filter strategy, and the wildcard bit
  /// combinations — is computed once per distinct mask (a mask→group hash,
  /// so adversarial mask mixes stay O(n)) and shared across the batch.
  /// Per-key work (bound-value mapper hashes, bucket visits, comparisons)
  /// still runs and is charged per key in batch order, so the result is
  /// exactly equivalent to n single probe() calls.
  void probe_batch(const ProbeKey* keys, std::size_t n,
                   std::vector<const Tuple*>* outs, ProbeStats* stats) override;

  /// Range probe (paper §II: join expressions may be <, >, >=, <=): each
  /// bound attribute carries an inclusive interval. Under the *range*
  /// mapper an interval maps to a contiguous run of bucket cells; under
  /// the *hash* mapper a non-degenerate interval gives no bucket pruning
  /// (the attribute's bits become wildcards) but is still verified.
  ProbeStats probe_range(const RangeProbeKey& key,
                         std::vector<const Tuple*>& out);

  std::size_t size() const override { return size_; }
  std::size_t memory_bytes() const override;
  std::string name() const override;
  void clear() override;

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

  /// Visit every stored tuple (used by migration and full scans).
  template <typename Fn>
  void for_each_tuple(Fn&& fn) const {
    buckets_.for_each([&](BucketId, const Bucket& bucket) {
      for (const BucketEntry& e : bucket) fn(e.tuple);
    });
  }

  /// Replace the IC and re-bucket every stored tuple (the paper's index
  /// adaptation: relocate each tuple to the buckets defined by the new IC).
  /// Charges one hash per indexed attribute per tuple.
  void reconfigure(const IndexConfig& new_config);

  /// Insert many tuples at once, with the same result as sequential
  /// insert() calls. Charges the same modelled cost (N_A hashes + one
  /// insert per tuple).
  void bulk_load(const std::vector<const Tuple*>& tuples);

  /// Deep structural validation: directory/count consistency, every stored
  /// tuple rehashes to its bucket, bucket ids fit in total_bits, and the
  /// memory-tracker bookkeeping matches. Aborts with a diagnostic on the
  /// first violation. Always compiled (tests call it in every build);
  /// structural transition points invoke it automatically only under
  /// AMRI_ASSERTIONS. Does not charge the cost meter.
  void check_invariants() const;

 private:
  using Bucket = BucketDirectory::Bucket;

  /// probe_batch materializes a group's wildcard combinations only up to
  /// this many ids (8 KiB); wider wildcards enumerate lazily, exactly like
  /// single-key probe(), so a wide-wildcard probe in a large directory
  /// cannot allocate more in the batched path than the unbatched one.
  static constexpr std::uint64_t kComboMaterializeCap = 1024;

  /// Probe layout: the fixed bits contributed by bound attributes and the
  /// list of wildcard chunks to enumerate.
  struct ProbeLayout {
    BucketId fixed = 0;       ///< bound-attribute bits in place
    BucketId fixed_mask = 0;  ///< which bucket-id bits are fixed
    int wildcard_bits = 0;    ///< total unbound indexed bits
  };

  ProbeLayout layout_for(const ProbeKey& key);
  /// bucket_of without meter charges (migration precompute, invariants,
  /// batched insert/erase).
  BucketId bucket_of_uncharged(const Tuple& t) const;
  /// Indexed attributes (bits > 0): the hashes bucket_of charges.
  int indexed_attr_count() const;
  /// Hash tag over a stored tuple's JAS values; fully-bound probes compare
  /// this against the probe key's tag before dereferencing the tuple.
  std::uint64_t tuple_tag(const Tuple& t) const;
  /// The same tag computed from a fully-bound probe key's values.
  std::uint64_t key_tag(const ProbeKey& key) const;
  /// Sync tracked_bytes_ (and the MemoryTracker) to memory_bytes().
  void sync_memory();

  JoinAttributeSet jas_;
  IndexConfig config_;
  BitMapper mapper_;
  CostMeter* meter_;
  MemoryTracker* memory_;
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
