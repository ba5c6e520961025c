#include "index/cost_model.hpp"

#include <cmath>

namespace amri::index {

double CostModel::maintenance_cost(const IndexConfig& ic) const {
  return maintenance_term(ic.indexed_attr_count());
}

double CostModel::search_cost(const IndexConfig& ic, AttrMask ap) const {
  return search_term(popcount(ap & ic.indexed_mask()), ic.bits_for(ap));
}

double CostModel::maintenance_term(int n_a) const {
  return params_.lambda_d * n_a * params_.hash_cost;
}

double CostModel::search_term(int n_a_ap, int b_ap) const {
  // Bits on attributes the probe binds narrow the candidate set.
  const double window_tuples = params_.lambda_d * params_.window_units;
  const double candidates = window_tuples / std::exp2(b_ap);
  return n_a_ap * params_.hash_cost + candidates * params_.compare_cost;
}

double CostModel::paper_cost(
    const IndexConfig& ic,
    const std::vector<PatternFrequency>& patterns) const {
  double search = 0.0;
  for (const PatternFrequency& p : patterns) {
    search += p.frequency * search_cost(ic, p.mask);
  }
  return maintenance_cost(ic) + params_.lambda_r * search;
}

double CostModel::extended_cost(
    const IndexConfig& ic,
    const std::vector<PatternFrequency>& patterns) const {
  double extra = 0.0;
  for (const PatternFrequency& p : patterns) {
    // Bits assigned to indexed attributes the probe does NOT bind force the
    // probe to visit 2^wild buckets.
    const int wild_bits = ic.total_bits() - ic.bits_for(p.mask);
    extra += p.frequency * std::exp2(wild_bits) * params_.bucket_cost;
  }
  return paper_cost(ic, patterns) + params_.lambda_r * extra;
}

}  // namespace amri::index
