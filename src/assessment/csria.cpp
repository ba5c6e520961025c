#include "assessment/csria.hpp"

#include <algorithm>
#include <cassert>

namespace amri::assessment {

void Csria::observe(AttrMask ap) {
  assert(is_subset(ap, universe_));
  // Lossy counting deletes sub-epsilon entries at segment boundaries; a
  // table shrink across one observe() is exactly that eviction sweep.
  const std::size_t before = counter_.size();
  counter_.observe(ap);
  note_observed();
  const std::size_t after = counter_.size();
  if (after < before) {
    note_compressed(static_cast<std::uint64_t>(before - after));
  }
}

std::vector<AssessedPattern> Csria::results(double theta) const {
  // The paper states CSRIA "returns all access pattern statistics whose
  // frequencies are above a preset threshold theta" (§IV-C2). Frequencies
  // here are the *estimated* (undercounted) lossy-counting frequencies, so
  // borderline-hot patterns whose counts were eroded by compression drop
  // out, and sub-epsilon patterns vanish entirely — the information loss
  // CDIA's combining repairs. (The alternative formal reading, bar at
  // theta - epsilon over count + delta, is the classic no-false-negative
  // guarantee; LossyCounting::results implements that form.)
  std::vector<AssessedPattern> out;
  const auto n = counter_.observed();
  if (n == 0) return out;
  // Gather with the permissive bar, then apply the strict-theta filter on
  // estimated frequency.
  for (const auto& item : counter_.results(0.0)) {
    const double f =
        static_cast<double>(item.count) / static_cast<double>(n);
    if (f >= theta) {
      out.push_back(AssessedPattern{item.key, item.count, item.max_error, f});
    }
  }
  return out;
}

AssessmentSnapshot Csria::snapshot() const {
  AssessmentSnapshot s;
  s.kind = AssessorKind::kCsria;
  s.universe = universe_;
  s.epsilon = counter_.epsilon();
  s.observed = counter_.observed();
  // theta = 0 makes the eviction bar negative, so every retained entry is
  // returned; re-sort by mask for the snapshot's deterministic order.
  auto items = counter_.results(0.0);
  std::sort(items.begin(), items.end(),
            [](const auto& a, const auto& b) { return a.key < b.key; });
  s.entries.reserve(items.size());
  for (const auto& item : items) {
    s.entries.push_back(
        AssessedPattern{item.key, item.count, item.max_error, 0.0});
  }
  return s;
}

}  // namespace amri::assessment
