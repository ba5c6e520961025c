// Structured event log for tuner/engine decisions: a fixed-capacity ring
// buffer of timestamped events (oldest entries overwritten under pressure)
// plus an optional streaming sink that sees every event as it is emitted,
// before any overwriting. Events carry their payload as a prebuilt JSON
// object fragment — producers use JsonWriter — so the log itself stays
// independent of every engine-layer type.
//
// Thread safety: emit/snapshot/accessors are mutex-guarded so migrations
// on several threads can log through one shared Telemetry handle.
// The sink is invoked under the log's mutex (events reach it in seq order
// exactly once); sinks must not re-enter the log.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/lock_ranks.gen.hpp"
#include "common/thread_annotations.hpp"
#include "common/types.hpp"

namespace amri::telemetry {

enum class EventKind : std::uint8_t {
  kRunStart = 0,
  kRunEnd,
  kSample,          ///< periodic engine snapshot (throughput curve point)
  kTunerDecision,   ///< assessment + index selection outcome
  kMigrationStart,  ///< index reconfiguration begins
  kMigrationEnd,    ///< index reconfiguration done (tuples moved, pause)
  kRoutingChange,   ///< eddy picked a different target for a done-mask
  kOom,             ///< memory budget exhausted, run dies
  kBackpressure,    ///< arrival backlog crossed the pressure threshold
  kSpan,            ///< sampled per-tuple trace stage (see docs/observability)
};

const char* event_kind_name(EventKind kind);

struct Event {
  EventKind kind = EventKind::kRunStart;
  TimeMicros t = 0;        ///< virtual time at emission
  StreamId stream = 0;     ///< owning state, 0 for engine-level events
  std::uint64_t seq = 0;   ///< global emission order (assigned by the log)
  std::string payload;     ///< JSON object fragment, e.g. {"tuples":12}
};

class EventLog {
 public:
  explicit EventLog(std::size_t capacity = 8192);

  /// Streaming sink invoked for every emitted event (after seq assignment).
  /// The sink outlives overwriting, so it sees the full stream even when
  /// the ring wraps. Pass nullptr to detach.
  void set_sink(std::function<void(const Event&)> sink) AMRI_EXCLUDES(mu_);

  /// Record an event; assigns the sequence number. Returns it.
  std::uint64_t emit(Event e) AMRI_EXCLUDES(mu_);

  /// Retained events, oldest first (ordered by seq).
  std::vector<Event> snapshot() const AMRI_EXCLUDES(mu_);

  std::uint64_t total_emitted() const AMRI_EXCLUDES(mu_);
  /// Events lost to ring overwrite (total_emitted - retained).
  std::uint64_t overwritten() const AMRI_EXCLUDES(mu_);
  std::size_t size() const AMRI_EXCLUDES(mu_);
  std::size_t capacity() const { return capacity_; }

  void clear() AMRI_EXCLUDES(mu_);

 private:
  const std::size_t capacity_;
  mutable Mutex mu_{lockrank::kEventLogMu};
  std::vector<Event> ring_
      AMRI_GUARDED_BY(mu_);  ///< grows to capacity_, then wraps by seq
  std::uint64_t next_seq_ AMRI_GUARDED_BY(mu_) = 0;
  std::function<void(const Event&)> sink_ AMRI_GUARDED_BY(mu_);
};

}  // namespace amri::telemetry
