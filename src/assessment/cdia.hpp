// CDIA — Compact Dependent Index Assessment (paper §IV-D2): DIA with
// hierarchical-heavy-hitter compression. Instead of deleting an infrequent
// access pattern's statistics (CSRIA), its count is combined into a parent
// pattern that provides it search benefit, so the mass still argues for
// index bits on the shared attributes. Combination policy is random or
// highest-count (paper's two strategies).
#pragma once

#include "assessment/assessor.hpp"
#include "stats/hierarchical_hh.hpp"

namespace amri::assessment {

class Cdia final : public Assessor {
 public:
  Cdia(AttrMask universe, double epsilon, stats::CombinePolicy policy,
       std::uint64_t seed = 0x5eedULL)
      : hhh_(universe, epsilon, policy, seed) {}

  void observe(AttrMask ap) override {
    // HHH compression merges infrequent leaves into a parent; a shrink
    // across one observe() counts the leaves combined away.
    const std::size_t before = hhh_.size();
    hhh_.observe(ap);
    note_observed();
    const std::size_t after = hhh_.size();
    if (after < before) {
      note_compressed(static_cast<std::uint64_t>(before - after));
    }
  }
  std::vector<AssessedPattern> results(double theta) const override;
  std::uint64_t observed() const override { return hhh_.observed(); }
  std::size_t table_size() const override { return hhh_.size(); }
  std::size_t approx_bytes() const override { return hhh_.approx_bytes(); }
  std::string name() const override;
  void reset() override { hhh_.clear(); }
  void decay(double factor) override { hhh_.scale(factor); }
  AssessmentSnapshot snapshot() const override;

  stats::CombinePolicy policy() const { return hhh_.policy(); }
  double epsilon() const { return hhh_.epsilon(); }
  const stats::HierarchicalHeavyHitter& counter() const { return hhh_; }

 private:
  stats::HierarchicalHeavyHitter hhh_;
};

}  // namespace amri::assessment
