#include "assessment/sria.hpp"

#include <algorithm>
#include <cassert>

namespace amri::assessment {

void Sria::observe(AttrMask ap) {
  assert(is_subset(ap, universe_));
  table_.add(ap);
  note_observed();  // SRIA never compresses: observation count only
}

std::vector<AssessedPattern> Sria::results(double theta) const {
  std::vector<AssessedPattern> out;
  const auto n = table_.total_observed();
  if (n == 0) return out;
  for (const auto& [mask, entry] : table_) {
    const double f =
        static_cast<double>(entry.count) / static_cast<double>(n);
    if (f >= theta) {
      out.push_back(AssessedPattern{mask, entry.count, 0, f});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const AssessedPattern& a, const AssessedPattern& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.mask < b.mask;
            });
  return out;
}

AssessmentSnapshot Sria::snapshot() const {
  AssessmentSnapshot s;
  s.kind = AssessorKind::kSria;
  s.universe = universe_;
  s.observed = table_.total_observed();
  s.entries.reserve(table_.size());
  for (const auto& [mask, entry] : table_.sorted_entries()) {
    s.entries.push_back(
        AssessedPattern{mask, entry.count, entry.max_error, 0.0});
  }
  return s;
}

}  // namespace amri::assessment
