// The common interface all state indexes implement: the AMRI bit-address
// index, the multi-hash access-module baseline, and the full-scan fallback.
//
// Indexes store non-owning pointers to tuples owned by the state's window
// store; the state erases a tuple from its index before expiring it.
// All operations charge their work to the state's CostMeter (hash
// computations, value comparisons, bucket visits) and report logical memory
// to the MemoryTracker, which is how the experiments reproduce the paper's
// time and memory behaviour.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/cost_meter.hpp"
#include "common/memory_tracker.hpp"
#include "common/tuple.hpp"
#include "index/access_pattern.hpp"

namespace amri::index {

/// Statistics a probe reports back to the caller (fed to routing policies
/// and index assessment).
struct ProbeStats {
  std::uint64_t buckets_visited = 0;
  std::uint64_t tuples_compared = 0;
  std::uint64_t matches = 0;

  ProbeStats& operator+=(const ProbeStats& other) {
    buckets_visited += other.buckets_visited;
    tuples_compared += other.tuples_compared;
    matches += other.matches;
    return *this;
  }
};

class TupleIndex {
 public:
  virtual ~TupleIndex() = default;

  /// Register a stored tuple. The pointer must stay valid until erase().
  virtual void insert(const Tuple* t) = 0;

  /// Remove a previously inserted tuple (no-op if absent).
  virtual void erase(const Tuple* t) = 0;

  /// Find all stored tuples matching `key` (verified equality on every
  /// bound attribute). Appends to `out` and returns probe statistics.
  virtual ProbeStats probe(const ProbeKey& key,
                           std::vector<const Tuple*>& out) = 0;

  /// Number of stored tuples.
  virtual std::size_t size() const = 0;

  /// Logical bytes of index structure (excluding the tuples themselves).
  virtual std::size_t memory_bytes() const = 0;

  virtual std::string name() const = 0;
};

}  // namespace amri::index
