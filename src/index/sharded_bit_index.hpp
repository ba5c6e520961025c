// Sharded bit-address index: one logical AMRI state partitioned into N
// BitAddressIndex shards by a stable hash of a designated join-attribute
// value (the sharding JAS position). Inserts and erases route to the
// owning shard; a probe that binds the sharding attribute touches exactly
// one shard, and any other probe fans out across all shards, one after
// another on the calling thread in shard-id order, so the merged match
// list is deterministic. Migration proceeds shard-by-shard; the modelled
// pause of each shard rebuild is roughly 1/N of the whole window's.
//
// Modelled cost: shards run uncharged (null meter), and the wrapper charges
// the aggregate on the calling thread — the same hash / bucket-visit /
// comparison structure as the unsharded index, with probe hashing charged
// once per probe (the coordinator computes the probe layout once).
//
// Thread safety: each shard is guarded by its own mutex. Concurrent probes
// (including overlapping fan-outs) and a concurrent mutator (insert /
// erase / migrate_shards) are safe; the aggregate counters and the cost
// meter are only touched by the mutating/probing *calling* threads, so the
// engine's single driver thread and the TSan stress harness (many probers
// racing one writer) are both race-free. Multiple concurrent mutators are
// not supported.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/lock_ranks.gen.hpp"
#include "common/thread_annotations.hpp"
#include "index/bit_address_index.hpp"
#include "index/index_migrator.hpp"
#include "index/tuple_index.hpp"
#include "telemetry/telemetry.hpp"

namespace amri::index {

/// Per-shard size distribution of a sharded index. `imbalance` is
/// max / mean over shards (1.0 = perfectly balanced, 0 when empty).
struct ShardBalance {
  std::vector<std::size_t> sizes;
  std::size_t max = 0;
  double mean = 0.0;
  double imbalance = 0.0;
};

/// Aggregate outcome of a shard-by-shard migration.
struct ShardMigrationReport {
  std::uint64_t tuples_moved = 0;
  std::uint64_t hashes_charged = 0;     ///< summed over shards
  std::uint64_t max_shard_hashes = 0;   ///< largest single-shard rebuild
};

class ShardedBitIndex final : public TupleIndex {
 public:
  /// `shards` >= 1; `shard_pos` is the JAS position whose value picks the
  /// owning shard (stable across reconfigurations — migration never moves
  /// a tuple between shards). `meter` / `memory` may be null; the shards
  /// themselves are always constructed uncharged and the wrapper accounts
  /// on the calling thread.
  ShardedBitIndex(JoinAttributeSet jas, IndexConfig config, BitMapper mapper,
                  std::size_t shards, std::size_t shard_pos = 0,
                  CostMeter* meter = nullptr, MemoryTracker* memory = nullptr);

  void insert(const Tuple* t) override;
  void erase(const Tuple* t) override;
  ProbeStats probe(const ProbeKey& key, std::vector<const Tuple*>& out) override;

  /// Batched probe: buckets the keys by owning shard (fan-out keys go to
  /// every shard) and visits each shard once for the whole batch, taking
  /// its lock once. Each shard answers its keys through
  /// BitAddressIndex::probe_batch (per-mask grouping), results merge
  /// deterministically (targeted keys verbatim, fan-out keys in shard-id
  /// order) and the wrapper charges per key in batch order — exactly
  /// equivalent to n single probe() calls.
  void probe_batch(const ProbeKey* keys, std::size_t n,
                   std::vector<const Tuple*>* outs, ProbeStats* stats) override;

  std::size_t size() const override { return size_; }
  std::size_t memory_bytes() const override;
  std::string name() const override;
  void clear() override;

  const IndexConfig& config() const { return config_; }
  const JoinAttributeSet& jas() const { return jas_; }
  std::size_t shard_count() const { return shards_.size(); }
  std::size_t shard_position() const { return shard_pos_; }

  /// The owning shard of a stored tuple (stable hash of its sharding
  /// attribute value).
  std::size_t shard_of(const Tuple& t) const;

  /// The single shard a probe can be answered from, or shard_count() when
  /// the sharding attribute is unbound and the probe must fan out.
  std::size_t target_shard(const ProbeKey& key) const;

  /// Direct shard access (tests and diagnostics; not thread-safe against
  /// concurrent mutators).
  const BitAddressIndex& shard(std::size_t i) const {
    return shards_[i]->index;
  }

  /// Rebuild every shard under `target`, one shard at a time through
  /// `migrator` (each shard's lock is held only for its own rebuild).
  /// Charges the summed rebuild hashes to the wrapper's meter. No-op when
  /// the IC is unchanged.
  ShardMigrationReport migrate_shards(const IndexConfig& target,
                                      const IndexMigrator& migrator);

  ShardBalance balance() const;

  /// Register per-shard gauges (`<prefix>.shard.<i>.size`), the balance
  /// gauge (`<prefix>.shard.imbalance`, refreshed by balance()), the probe
  /// fan-out histogram (`<prefix>.probe.fanout_shards`), the per-batch
  /// width histogram (`<prefix>.probe.batch.fanout_width`: how many shards
  /// one probe_batch call visited) and the per-shard migration pause
  /// histogram (`<prefix>.migration.shard_hashes`) in `telemetry`'s
  /// registry. Also keeps the handle so fan-out probes under an active
  /// trace span emit "fanout" span events (width plus per-shard wall
  /// nanoseconds), stamped with `stream`. Null detaches.
  void bind_telemetry(telemetry::Telemetry* telemetry,
                      const std::string& prefix, StreamId stream = 0);

  /// Deep validation: per-shard BitAddressIndex invariants, shard sizes
  /// summing to size(), one shared IC, and every stored tuple hashing to
  /// the shard that holds it.
  void check_invariants() const;

 private:
  struct Shard {
    mutable Mutex mu{lockrank::kShardedBitIndexShardMu};
    BitAddressIndex index AMRI_GUARDED_BY(mu);
    telemetry::Gauge* size_gauge = nullptr;

    Shard(const JoinAttributeSet& jas, const IndexConfig& config,
          const BitMapper& mapper, MemoryTracker* memory)
        : index(jas, config, mapper, /*meter=*/nullptr, memory) {}
  };

  std::size_t shard_of_value(Value v) const;
  /// Bound JAS positions of `mask` that carry index bits (the probe-side
  /// N_{A,ap} hash charge).
  std::uint64_t bound_indexed(AttrMask mask) const;
  void charge_probe(AttrMask mask, const ProbeStats& stats);

  JoinAttributeSet jas_;
  IndexConfig config_;
  std::size_t shard_pos_;
  CostMeter* meter_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t size_ = 0;  ///< maintained by the (single) mutating thread
  // Telemetry instruments (null when detached).
  telemetry::Telemetry* telemetry_ = nullptr;  ///< span fan-out events
  StreamId stream_id_ = 0;                     ///< span event stream stamp
  telemetry::Gauge* imbalance_gauge_ = nullptr;
  telemetry::Histogram* fanout_hist_ = nullptr;
  telemetry::Histogram* batch_fanout_hist_ = nullptr;
  telemetry::Histogram* shard_migration_hist_ = nullptr;
};

}  // namespace amri::index
