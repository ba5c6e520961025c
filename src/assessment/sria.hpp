// SRIA — Self Reliant Index Assessment (paper §IV-C1): exact per-pattern
// counts in a hash table keyed by BR(ap). Statistics are independent of
// each other ("self reliant"); nothing is ever evicted, so memory grows
// with the number of distinct patterns (up to 2^N_ja).
#pragma once

#include "assessment/assessor.hpp"
#include "stats/frequency_map.hpp"

namespace amri::assessment {

class Sria final : public Assessor {
 public:
  explicit Sria(AttrMask universe) : universe_(universe) {}

  void observe(AttrMask ap) override;
  std::vector<AssessedPattern> results(double theta) const override;
  std::uint64_t observed() const override { return table_.total_observed(); }
  std::size_t table_size() const override { return table_.size(); }
  std::size_t approx_bytes() const override { return table_.approx_bytes(); }
  std::string name() const override { return "SRIA"; }
  void reset() override { table_.clear(); }
  void decay(double factor) override { table_.scale(factor); }
  AssessmentSnapshot snapshot() const override;

  const stats::FrequencyMap& table() const { return table_; }

 private:
  AttrMask universe_;
  stats::FrequencyMap table_;
};

}  // namespace amri::assessment
