#include "assessment/dia.hpp"

#include <algorithm>
#include <cassert>

namespace amri::assessment {

void Dia::observe(AttrMask ap) {
  assert(is_subset(ap, lattice_.shape().universe()));
  lattice_.counts().add(ap);
  note_observed();  // DIA keeps full statistics: nothing compressed
  AMRI_CHECK_INVARIANTS(*this);
}

std::vector<AssessedPattern> Dia::results(double theta) const {
  std::vector<AssessedPattern> out;
  const auto n = lattice_.counts().total_observed();
  if (n == 0) return out;
  for (const auto& [mask, entry] : lattice_.counts()) {
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

AssessmentSnapshot Dia::snapshot() const {
  AssessmentSnapshot s;
  s.kind = AssessorKind::kDia;
  s.universe = lattice_.shape().universe();
  s.observed = lattice_.counts().total_observed();
  s.entries.reserve(lattice_.counts().size());
  for (const auto& [mask, entry] : lattice_.counts().sorted_entries()) {
    s.entries.push_back(
        AssessedPattern{mask, entry.count, entry.max_error, 0.0});
  }
  return s;
}

}  // namespace amri::assessment
