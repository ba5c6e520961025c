// The index-configuration-dependent cost C_D of paper Equation 1:
//
//   C_D = C_hash,I + C_hash,Sr + C_search
//       = λ_d · N_A · C_h
//       + λ_r · Σ_{ap∈A} F_ap · ( N_{A,ap} · C_h
//                                + λ_d · W_ap / 2^{B_ap} · C_c )
//
// where N_A is the number of indexed attributes, N_{A,ap} the indexed
// attributes bound by ap, B_ap the bits assigned to ap's bound attributes,
// W_ap the window length and F_ap the access-pattern frequency. The model
// assumes tuples distribute evenly over buckets (the paper's stated
// index-key-map assumption).
//
// An extended variant adds the wildcard bucket-visit term the physical
// probe actually pays — 2^(bits on attributes NOT in ap) bucket touches —
// which the paper's analytical model omits; the ablation bench compares
// the two.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitops.hpp"
#include "index/index_config.hpp"

namespace amri::index {

/// One access pattern's workload share.
struct PatternFrequency {
  AttrMask mask = 0;
  double frequency = 0.0;  ///< F_ap, share of all search requests
};

/// Workload parameters of the cost model (paper Table I).
struct WorkloadParams {
  double lambda_d = 100.0;   ///< incoming tuples per time unit
  double lambda_r = 100.0;   ///< search requests per time unit
  double window_units = 10;  ///< W_ap: window length in time units
  double hash_cost = 1.0;    ///< C_h
  double compare_cost = 0.2; ///< C_c
  double bucket_cost = 0.05; ///< per-bucket touch (extended model only)
};

class CostModel {
 public:
  explicit CostModel(WorkloadParams params) : params_(params) {}

  const WorkloadParams& params() const { return params_; }

  /// The paper's C_D (Equation 1).
  double paper_cost(const IndexConfig& ic,
                    const std::vector<PatternFrequency>& patterns) const;

  /// Eq. 1 plus the wildcard bucket-enumeration term.
  double extended_cost(const IndexConfig& ic,
                       const std::vector<PatternFrequency>& patterns) const;

  /// Maintenance-side term only: λ_d · N_A · C_h.
  double maintenance_cost(const IndexConfig& ic) const;

  /// Search-side term for a single pattern (paper model).
  double search_cost(const IndexConfig& ic, AttrMask ap) const;

  /// The two terms above from the counts Eq. 1 reads off an IC: N_A, and
  /// N_{A,ap} / B_ap for one pattern. The IC overloads delegate here, so a
  /// caller tabulating these by count gets the identical doubles.
  double maintenance_term(int n_a) const;
  double search_term(int n_a_ap, int b_ap) const;

 private:
  WorkloadParams params_;
};

}  // namespace amri::index
