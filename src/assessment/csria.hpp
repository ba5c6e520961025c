// CSRIA — Compact SRIA (paper §IV-C2): SRIA with Manku–Motwani lossy
// counting. Patterns whose frequency falls below the error rate epsilon are
// periodically *deleted*; the final answer contains every pattern with
// f_ap + delta >= theta - epsilon. Guaranteed to keep anything truly above
// theta, but — as the paper's Table II example shows — deleting related
// patterns can hide index opportunities their *combined* mass would earn.
#pragma once

#include "assessment/assessor.hpp"
#include "stats/lossy_counting.hpp"

namespace amri::assessment {

class Csria final : public Assessor {
 public:
  Csria(AttrMask universe, double epsilon)
      : universe_(universe), counter_(epsilon) {}

  void observe(AttrMask ap) override;
  std::vector<AssessedPattern> results(double theta) const override;
  std::uint64_t observed() const override { return counter_.observed(); }
  std::size_t table_size() const override { return counter_.size(); }
  std::size_t approx_bytes() const override { return counter_.approx_bytes(); }
  std::string name() const override { return "CSRIA"; }
  void reset() override { counter_.clear(); }
  void decay(double factor) override { counter_.scale(factor); }
  AssessmentSnapshot snapshot() const override;

  double epsilon() const { return counter_.epsilon(); }

  /// δ-bound consistency of the underlying lossy counter (see
  /// LossyCounting::check_invariants). Callable from tests in any build.
  void check_invariants() const { counter_.check_invariants(); }

 private:
  AttrMask universe_;
  stats::LossyCounting<AttrMask> counter_;
};

}  // namespace amri::assessment
