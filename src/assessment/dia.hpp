// DIA — Dependent Index Assessment (paper §IV-D1): counts are kept on the
// search-benefit lattice, preserving the subset relationships between
// access patterns. Without compression DIA retains exactly the same counts
// as SRIA (the paper notes their experimental curves coincide); the lattice
// structure is what CDIA's compression exploits.
#pragma once

#include "assessment/assessor.hpp"
#include "common/assertions.hpp"
#include "stats/lattice.hpp"

namespace amri::assessment {

class Dia final : public Assessor {
 public:
  explicit Dia(AttrMask universe) : lattice_(universe) {}

  void observe(AttrMask ap) override;
  std::vector<AssessedPattern> results(double theta) const override;
  std::uint64_t observed() const override {
    return lattice_.counts().total_observed();
  }
  std::size_t table_size() const override { return lattice_.counts().size(); }
  std::size_t approx_bytes() const override {
    return lattice_.counts().approx_bytes();
  }
  std::string name() const override { return "DIA"; }
  void reset() override { lattice_.counts().clear(); }
  void decay(double factor) override { lattice_.counts().scale(factor); }
  AssessmentSnapshot snapshot() const override;

  const stats::PartialLattice& lattice() const { return lattice_; }

  /// Lattice consistency: every materialised node lies within the state's
  /// attribute universe, carries a live count, and the retained count mass
  /// never exceeds the stream length (decay rounds down; DIA itself never
  /// compresses). Always compiled; observe() invokes it only under
  /// AMRI_ASSERTIONS.
  void check_invariants() const {
    const AttrMask universe = lattice_.shape().universe();
    std::uint64_t sum = 0;
    for (const auto& [mask, entry] : lattice_.counts()) {
      AMRI_CHECK(is_subset(mask, universe),
                 "lattice node outside the attribute universe");
      AMRI_CHECK(entry.count >= 1, "lattice node with zero count");
      sum += entry.count;
    }
    AMRI_CHECK(sum <= lattice_.counts().total_observed(),
               "retained lattice mass exceeds total observations");
  }

 private:
  stats::PartialLattice lattice_;
};

}  // namespace amri::assessment
