// A batch of arrival tuples moving through the execution pipeline as one
// unit. The executor drains up to `--batch-size` ready arrivals into a
// TupleBatch, expires the windows once, and then inserts/routes the batch
// run-by-run (see docs/architecture.md, "Batched execution").
//
// The batch owns its tuples in a contiguous slot array; `done[i]` is the
// routing done-mask seeded with the tuple's own stream bit (a partial tree
// never revisits a stream it already covers). Downstream layers take
// (tuples, done) spans, so a future resumable pipeline can re-enter a batch
// with partially-routed masks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/tuple.hpp"

namespace amri {

/// Per-arrival sequence horizon for wall-mode cross-run batching: maps each
/// stored tuple of the batch being routed to its batch index. The router
/// skips any probe match whose batch index is >= the routed arrival's
/// index, so arrival i sees exactly the window state sequential execution
/// would have shown it (earlier arrivals j < i inserted, later ones not
/// yet) even though the whole mixed-stream batch was inserted up front and
/// routed as one segment. This replaces same-stream run splitting
/// (run_end below) in wall mode: mixed-stream arrivals form one routed
/// segment instead of many tiny per-stream runs.
struct BatchVisibility {
  std::unordered_map<const Tuple*, std::uint32_t> order;

  /// Rebuild the map from the batch's stored-tuple pointers (batch order).
  void assign(const Tuple* const* stored, std::size_t n) {
    order.clear();
    for (std::size_t i = 0; i < n; ++i) {
      order.emplace(stored[i], static_cast<std::uint32_t>(i));
    }
  }

  /// May the arrival at batch order `root` see match `m`? True for every
  /// tuple outside the current batch (earlier batches, fully inserted) and
  /// for batch members that arrived before the root.
  bool visible_to(const Tuple* m, std::size_t root) const {
    const auto it = order.find(m);
    return it == order.end() || it->second < root;
  }
};

struct TupleBatch {
  std::vector<Tuple> tuples;       ///< contiguous arrival slots
  std::vector<std::uint32_t> done; ///< per-tuple visited-streams mask

  std::size_t size() const { return tuples.size(); }
  bool empty() const { return tuples.empty(); }

  void clear() {
    tuples.clear();
    done.clear();
  }

  void push(const Tuple& t) {
    tuples.push_back(t);
    done.push_back(1u << t.stream);
  }

  /// One past the last index of the consecutive same-stream run starting at
  /// `from`. Runs are the unit of batched insert+route: within a run no
  /// tuple probes its own stream's window, so batching the run's inserts
  /// ahead of its routing is observationally identical to tuple-at-a-time
  /// execution (the equivalence argument in docs/architecture.md).
  std::size_t run_end(std::size_t from) const {
    std::size_t end = from;
    while (end < tuples.size() && tuples[end].stream == tuples[from].stream) {
      ++end;
    }
    return end;
  }
};

}  // namespace amri
