// Index selection: find the index configuration minimising C_D for the
// access-pattern frequencies the assessment produced (paper §IV intro:
// "locate the index configuration with the lowest index configuration
// dependent costs").
//
// The exhaustive search visits all C(B + n, n) allocations of at most B
// bits over n attributes (165 at the paper's n = 3, B = 8; 24,310 for a
// 9-attribute shared multi-query state) with an allocation-free
// depth-first kernel that updates each pattern's Eq. 1 counts
// incrementally.
#pragma once

#include <vector>

#include "index/cost_model.hpp"
#include "index/index_config.hpp"

namespace amri::index {

struct OptimizerOptions {
  int bit_budget = 12;        ///< total bits available for the IC
  int max_bits_per_attr = 8;  ///< hard cap per attribute chunk
  bool use_extended_cost = false;  ///< include wildcard bucket-visit term
  /// Also collect the `track_top_k` cheapest configurations into
  /// OptimizerResult::top (0 = best only). Used by telemetry to log the
  /// scored candidates behind every tuning decision.
  std::size_t track_top_k = 0;
};

/// One candidate configuration with its cost-model estimate.
struct ScoredConfig {
  IndexConfig config;
  double cost = 0.0;
};

struct OptimizerResult {
  IndexConfig config;
  double cost = 0.0;
  std::uint64_t configs_evaluated = 0;
  /// The cheapest `track_top_k` configurations, ascending cost (includes
  /// `config` itself as the first entry). Empty when tracking is off.
  std::vector<ScoredConfig> top;
};

class IndexOptimizer {
 public:
  /// Throws std::invalid_argument unless bit_budget ∈ [0,
  /// IndexConfig::kMaxTotalBits] and max_bits_per_attr ≥ 0.
  IndexOptimizer(CostModel model, OptimizerOptions options);

  const OptimizerOptions& options() const { return options_; }

  /// Exhaustive search over all allocations of ≤ budget bits, in
  /// enumerate_allocations order. Each candidate's cost is the identical
  /// double CostModel::paper_cost (or extended_cost) returns for it, and
  /// the first minimum wins ties. Throws std::invalid_argument when
  /// `num_attrs` exceeds the width of AttrMask.
  OptimizerResult optimize(std::size_t num_attrs,
                           const std::vector<PatternFrequency>& patterns) const;

  /// Baseline "conventional index selection" used for the access-module
  /// comparison (paper §V): pick hash-index key masks for the
  /// `max_modules` most frequent access patterns.
  static std::vector<AttrMask> select_hash_modules(
      const std::vector<PatternFrequency>& patterns, std::size_t max_modules);

 private:
  CostModel model_;
  OptimizerOptions options_;
};

}  // namespace amri::index
