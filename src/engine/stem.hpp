// The STeM operator (paper §II, after Raman et al. [5]): a unary join
// state module supporting insertion, window-expiry deletion, and probe by
// join predicates. The physical index behind a STeM is pluggable — the
// AMRI bit-address index, the multi-hash access-module baseline, or a full
// scan — and an optional tuner adapts it online.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/cost_meter.hpp"
#include "common/memory_tracker.hpp"
#include "common/tuple.hpp"
#include "engine/query.hpp"
#include "index/access_module_set.hpp"
#include "index/bit_address_index.hpp"
#include "index/scan_index.hpp"
#include "index/sharded_bit_index.hpp"
#include "telemetry/telemetry.hpp"
#include "tuner/amri_tuner.hpp"
#include "tuner/hash_module_tuner.hpp"

namespace amri::engine {

/// Which physical index a STeM uses (the experiment axis of the paper).
enum class IndexBackend : std::uint8_t {
  kAmri = 0,        ///< bit-address index with AMRI online tuning
  kStaticBitmap,    ///< bit-address index, no tuning (paper's non-adapting
                    ///< bitmap baseline)
  kAccessModules,   ///< multi-hash access modules [5], CDIA-tuned
  kStaticModules,   ///< multi-hash access modules, no tuning
  kScan,            ///< no index at all
};

struct StemOptions {
  IndexBackend backend = IndexBackend::kAmri;
  /// Bit-address backends. A config of another width than the state's JAS
  /// keeps its bit budget, spread round-robin over the JAS positions.
  index::IndexConfig initial_config;
  std::vector<AttrMask> initial_modules;      ///< access-module backends
  std::optional<tuner::TunerOptions> amri_tuner;       ///< kAmri
  std::optional<tuner::HashTunerOptions> module_tuner; ///< kAccessModules
  /// Bit-address backends only: partition the state's window and index
  /// into this many shards (index::ShardedBitIndex), routed by the value
  /// of JAS position 0. 1 keeps the plain single index; the module/scan
  /// backends ignore sharding.
  std::size_t shards = 1;
};

class StemOperator {
 public:
  /// `layout` comes from the QuerySpec; `window` is the sliding-window
  /// length; `model` parameterises tuner cost decisions. With `telemetry`
  /// set the STeM records probe histograms (fan-out, per-access-pattern
  /// latency) and threads the handle into its index and tuner; null keeps
  /// every telemetry path to a pointer check. `queries` is the number of
  /// queries sharing the state: a bit-address state's tuner keeps one
  /// assessor cell per (query, shard) and merges them at every decision,
  /// so one tuner scores candidate ICs against the union workload, with
  /// per-query request shares attached to the decision.
  StemOperator(StreamId stream, const StateLayout& layout, TimeMicros window,
               StemOptions options, index::CostModel model,
               CostMeter* meter = nullptr, MemoryTracker* memory = nullptr,
               telemetry::Telemetry* telemetry = nullptr,
               std::size_t queries = 1);

  ~StemOperator();

  StemOperator(const StemOperator&) = delete;
  StemOperator& operator=(const StemOperator&) = delete;

  StreamId stream() const { return stream_; }
  const StateLayout& layout() const { return layout_; }
  IndexBackend backend() const { return options_.backend; }

  /// Store an arriving tuple (copied into the window store) and index it.
  /// Returns the stored copy (stable address until expiry).
  const Tuple* insert(const Tuple& t);

  /// Store and index `n` arrivals at once (timestamps must be
  /// non-decreasing, like repeated insert() calls). Stored-copy pointers
  /// are appended to `stored`. Identical charges and final state to n
  /// single insert() calls; memory accounting is synced once.
  void insert_batch(const Tuple* arrivals, std::size_t n,
                    std::vector<const Tuple*>& stored);

  /// Expire tuples older than `now - window`.
  void expire(TimeMicros now);

  /// Probe for matches on behalf of query `query`; feeds the access pattern
  /// to that query's tuner cell (if any) and applies a due tuning decision
  /// right after the probe. Matches are appended to `out`.
  index::ProbeStats probe(const index::ProbeKey& key,
                          std::vector<const Tuple*>& out,
                          std::size_t query = 0);

  /// Reusable probe-output arena: returned cleared, capacity persists
  /// across calls, so steady-state probing through this buffer performs no
  /// allocation. The contents are valid until the next probe_scratch()
  /// call on this STeM; callers needing longer-lived results must copy.
  std::vector<const Tuple*>& probe_scratch() {
    probe_scratch_.clear();
    return probe_scratch_;
  }

  std::size_t stored_tuples() const { return window_store_.size(); }
  const index::TupleIndex& physical_index() const { return *index_; }

  /// Number of index shards (1 for every unsharded backend).
  std::size_t shard_count() const {
    return sharded_index_ != nullptr ? sharded_index_->shard_count() : 1;
  }

  /// Max/mean shard-size skew (1.0 = balanced; also 1.0 when unsharded).
  double shard_imbalance() const {
    return sharded_index_ != nullptr && stored_tuples() > 0
               ? sharded_index_->balance().imbalance
               : 1.0;
  }

  /// Current bit-address config (bit-address backends only).
  const index::IndexConfig* current_config() const;

  /// Refresh the gauges that summarise the whole state rather than one
  /// operation (the unsharded bit-address index's occupancy imbalance).
  /// The run loop calls it at each sample while telemetry is attached.
  void refresh_gauges() {
    if (bit_index_ != nullptr) bit_index_->refresh_occupancy_gauge();
  }

  std::uint64_t probes_served() const { return probes_; }
  std::uint64_t migrations() const;

  /// Tuning decisions whose recommended migration was blocked by an
  /// enabled guardrail (hysteresis / amortization / budgets). 0 for
  /// non-AMRI backends and guardrails-off tuners.
  std::uint64_t suppressed() const;

  /// Total modelled virtual time this state spent paused in migrations.
  double migration_pause_us() const;

  /// Final logical footprint: window store plus index structure bytes.
  std::size_t state_bytes() const {
    return tracked_tuple_bytes_ + index_->memory_bytes();
  }

  /// Force a tuning decision now (used after the warm-up phase). For the
  /// static backends (kStaticBitmap / kStaticModules) this applies the
  /// warm-up statistics once and then *drops* the tuner: the paper's
  /// non-adapting baselines start from a trained configuration but never
  /// adapt again.
  void finish_warmup();

  /// Apply a pending tuning decision immediately (adaptive backends).
  void force_tune();

  /// Window-store / index consistency: the store's timestamps are
  /// non-decreasing (expire() pops from the front and relies on it), the
  /// bit-address index holds exactly the stored tuples (checked deeply via
  /// BitAddressIndex::check_invariants), and tuple memory accounting
  /// matches the store. Always compiled; expire() invokes it only under
  /// AMRI_ASSERTIONS.
  void check_invariants() const;

 private:
  void sync_tuple_memory();
  telemetry::Histogram* pattern_histogram(AttrMask mask);

  StreamId stream_;
  StateLayout layout_;
  TimeMicros window_;
  StemOptions options_;
  CostMeter* meter_;
  MemoryTracker* memory_;
  std::deque<Tuple> window_store_;
  std::unique_ptr<index::TupleIndex> index_;
  index::BitAddressIndex* bit_index_ = nullptr;      ///< non-owning view
  index::ShardedBitIndex* sharded_index_ = nullptr;  ///< non-owning view
  index::AccessModuleSet* module_index_ = nullptr;   ///< non-owning view
  std::unique_ptr<tuner::AmriTuner> amri_tuner_;
  std::unique_ptr<tuner::HashModuleTuner> module_tuner_;
  /// Scratch for expire()'s batched erase (pointer run into window_store_);
  /// a member so steady-state expiry never reallocates.
  std::vector<const Tuple*> expiry_scratch_;
  /// Sharded mode: a targeted probe is assessed in its target shard's
  /// tuner cell, a fan-out probe in the next cell of this deterministic
  /// round-robin.
  std::uint64_t fanout_rr_ = 0;
  bool continuous_tuning_ = false;
  std::uint64_t warmup_migrations_ = 0;
  std::uint64_t warmup_suppressed_ = 0;
  double warmup_pause_us_ = 0.0;
  std::uint64_t probes_ = 0;
  std::size_t tracked_tuple_bytes_ = 0;
  std::vector<const Tuple*> probe_scratch_;
  // Telemetry instruments (null when detached).
  telemetry::Telemetry* telemetry_ = nullptr;
  telemetry::Profiler* profiler_ = nullptr;  ///< null unless --profile
  telemetry::Counter* probe_counter_ = nullptr;
  telemetry::Histogram* probe_cost_hist_ = nullptr;
  /// Per-access-pattern probe latency histograms, created lazily on the
  /// first probe carrying each pattern.
  std::unordered_map<AttrMask, telemetry::Histogram*> pattern_hists_;
};

}  // namespace amri::engine
