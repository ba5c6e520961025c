// Lossy Counting (Manku & Motwani, VLDB 2002) — the epsilon-approximate
// heavy-hitter algorithm CSRIA is modelled after.
//
// Stream positions are processed in segments ("buckets" in the original
// paper) of width ceil(1/epsilon). Each entry stores its observed count and
// the maximum undercount delta = s_id - 1 recorded at (re)insertion. At each
// segment boundary entries with count + delta <= s_id are evicted. The
// classic guarantees hold:
//   * no false negatives: every key with true frequency >= theta is output
//     when querying with threshold (theta - epsilon) * N;
//   * estimated count undershoots the true count by at most epsilon * N;
//   * at most (1/epsilon) * log(epsilon * N) entries are retained.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/assertions.hpp"

namespace amri::stats {

template <typename Key>
class LossyCounting {
 public:
  struct Item {
    Key key{};
    std::uint64_t count = 0;      ///< observed occurrences since insertion
    std::uint64_t max_error = 0;  ///< possible undercount (delta)
  };

  /// epsilon in (0, 1). Segment width is ceil(1/epsilon).
  explicit LossyCounting(double epsilon) : epsilon_(epsilon) {
    assert(epsilon > 0.0 && epsilon < 1.0);
    segment_width_ = static_cast<std::uint64_t>(1.0 / epsilon);
    if (segment_width_ * epsilon < 1.0) ++segment_width_;  // ceil
    if (segment_width_ == 0) segment_width_ = 1;
  }

  double epsilon() const { return epsilon_; }
  std::uint64_t segment_width() const { return segment_width_; }

  /// Current segment id: floor(epsilon * N) in the paper, equivalently
  /// N / segment_width for integral segment widths.
  std::uint64_t segment_id() const { return observed_ / segment_width_; }

  std::uint64_t observed() const { return observed_; }
  std::size_t size() const { return table_.size(); }

  /// Process one stream element. Runs the boundary compression pass
  /// whenever the element completes a segment.
  void observe(const Key& key) {
    auto [it, inserted] = table_.try_emplace(key, Item{key, 0, 0});
    if (inserted) {
      // delta = current segment id - 1 == floor(eps*N), clamped at 0.
      it->second.max_error = segment_id() == 0 ? 0 : segment_id();
      // Manku-Motwani uses b_current - 1 where b_current = segment_id + 1.
      // segment_id() here is already b_current - 1 before this element.
    }
    ++it->second.count;
    ++observed_;
    if (observed_ % segment_width_ == 0) {
      compress();
      AMRI_CHECK_INVARIANTS(*this);
    }
  }

  /// Segment-boundary eviction: drop entries with count + delta <= s_id.
  void compress() {
    const std::uint64_t sid = segment_id();
    for (auto it = table_.begin(); it != table_.end();) {
      if (it->second.count + it->second.max_error <= sid) {
        it = table_.erase(it);
      } else {
        ++it;
      }
    }
#ifdef AMRI_ASSERTIONS
    // Eviction completeness: everything the Manku–Motwani rule says to drop
    // at this boundary is gone, so the per-entry undercount bound holds.
    for (const auto& [k, item] : table_) {
      AMRI_ASSERT(item.count + item.max_error > sid,
                  "lossy-counting entry survived its eviction bound");
    }
#endif
  }

  /// Always-true δ-bound consistency (the Manku–Motwani guarantees CSRIA's
  /// correctness argument rests on): every retained entry has a live count,
  /// its recorded max undercount never exceeds floor(epsilon * N), and no
  /// count exceeds the stream length. Always compiled; hot paths invoke it
  /// only under AMRI_ASSERTIONS (after each segment-boundary compression).
  void check_invariants() const {
    const std::uint64_t sid = segment_id();
    for (const auto& [k, item] : table_) {
      AMRI_CHECK(item.count >= 1, "retained entry with zero count");
      AMRI_CHECK(item.max_error <= sid,
                 "delta exceeds floor(epsilon * N): undercount bound broken");
      AMRI_CHECK(item.count <= observed_,
                 "entry count exceeds total observations");
    }
  }

  /// All keys whose estimated frequency could reach `theta`:
  /// count >= (theta - epsilon) * N. Sorted by descending count.
  std::vector<Item> results(double theta) const {
    std::vector<Item> out;
    const double bar = (theta - epsilon_) * static_cast<double>(observed_);
    for (const auto& [k, item] : table_) {
      if (static_cast<double>(item.count) >= bar) out.push_back(item);
    }
    std::sort(out.begin(), out.end(), [](const Item& a, const Item& b) {
      if (a.count != b.count) return a.count > b.count;
      return a.key < b.key;
    });
    return out;
  }

  /// Estimated count for a key (0 if evicted/absent). Never overshoots the
  /// true count; undershoots by at most epsilon * N.
  std::uint64_t estimate(const Key& key) const {
    const auto it = table_.find(key);
    return it == table_.end() ? 0 : it->second.count;
  }

  std::size_t approx_bytes() const {
    return table_.size() * (sizeof(Key) + sizeof(Item) + 16);
  }

  void clear() {
    table_.clear();
    observed_ = 0;
  }

  /// Age the sketch: scale every count/error and the observation total by
  /// `factor` in (0, 1). Frequencies are preserved; zeroed entries drop.
  void scale(double factor) {
    for (auto it = table_.begin(); it != table_.end();) {
      it->second.count = static_cast<std::uint64_t>(
          static_cast<double>(it->second.count) * factor);
      it->second.max_error = static_cast<std::uint64_t>(
          static_cast<double>(it->second.max_error) * factor);
      if (it->second.count == 0) {
        it = table_.erase(it);
      } else {
        ++it;
      }
    }
    observed_ =
        static_cast<std::uint64_t>(static_cast<double>(observed_) * factor);
  }

 private:
  double epsilon_;
  std::uint64_t segment_width_ = 1;
  std::uint64_t observed_ = 0;
  std::unordered_map<Key, Item> table_;
};

}  // namespace amri::stats
