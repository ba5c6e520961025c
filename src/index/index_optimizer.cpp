#include "index/index_optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace amri::index {

namespace {

constexpr std::size_t kMaxAttrs = std::numeric_limits<AttrMask>::digits;

void check_num_attrs(std::size_t num_attrs) {
  if (num_attrs > kMaxAttrs) {
    throw std::invalid_argument(
        "index optimizer: " + std::to_string(num_attrs) +
        " join attributes exceed the " + std::to_string(kMaxAttrs) +
        "-attribute access-pattern mask");
  }
}

/// Depth-first search over every allocation of ≤ `budget` bits in
/// enumerate_allocations order (position 0 outermost, bits ascending),
/// evaluating Eq. 1 at each leaf from running per-pattern counts and
/// per-count tables. Every table entry comes from the CostModel term the
/// cost functions themselves call, and the leaf sums run in their order,
/// so each candidate's cost is the same double paper_cost (kExtended:
/// extended_cost) returns for it.
template <bool kExtended>
OptimizerResult exhaustive_search(const CostModel& model, std::size_t n,
                                  const std::vector<PatternFrequency>& patterns,
                                  int budget, int cap, std::size_t top_k) {
  const WorkloadParams& wp = model.params();
  const std::size_t np = patterns.size();
  const std::size_t stride = static_cast<std::size_t>(budget) + 1;

  // search_terms[n_a_ap * stride + b_ap]; maintenance_terms[n_a];
  // pow2[wildcard bits] for the extended term.
  std::vector<double> search_terms((n + 1) * stride);
  std::vector<double> maintenance_terms(n + 1);
  std::vector<double> pow2(stride);
  for (std::size_t a = 0; a <= n; ++a) {
    maintenance_terms[a] = model.maintenance_term(static_cast<int>(a));
    for (int b = 0; b <= budget; ++b) {
      search_terms[a * stride + static_cast<std::size_t>(b)] =
          model.search_term(static_cast<int>(a), b);
    }
  }
  for (int w = 0; w <= budget; ++w) {
    pow2[static_cast<std::size_t>(w)] = std::exp2(w);
  }

  // Patterns binding each position, as offsets into one flat list.
  std::vector<std::size_t> bind_begin(n + 1);
  std::vector<std::size_t> bind_list;
  for (std::size_t pos = 0; pos < n; ++pos) {
    bind_begin[pos] = bind_list.size();
    for (std::size_t k = 0; k < np; ++k) {
      if (has_bit(patterns[k].mask, static_cast<unsigned>(pos))) {
        bind_list.push_back(k);
      }
    }
  }
  bind_begin[n] = bind_list.size();

  std::vector<double> freq(np);
  for (std::size_t k = 0; k < np; ++k) freq[k] = patterns[k].frequency;
  // Running per-pattern counts: cell[k] = N_{A,ap} * stride + B_ap indexes
  // search_terms directly; the extended term also needs B_ap alone.
  std::vector<std::size_t> cell(np, 0);
  std::vector<int> bound_bits(kExtended ? np : 0, 0);
  std::vector<std::uint8_t> alloc(n, 0);
  int used = 0;             // total bits
  std::size_t indexed = 0;  // N_A

  const auto add_bit = [&](std::size_t pos) {
    const bool first = alloc[pos]++ == 0;
    ++used;
    indexed += first ? 1 : 0;
    // A position's first bit also makes it indexed: N_{A,ap} + 1.
    const std::size_t step = first ? stride + 1 : 1;
    for (std::size_t i = bind_begin[pos]; i < bind_begin[pos + 1]; ++i) {
      cell[bind_list[i]] += step;
      if constexpr (kExtended) ++bound_bits[bind_list[i]];
    }
  };
  const auto clear = [&](std::size_t pos) {
    const int bits = alloc[pos];
    if (bits == 0) return;
    alloc[pos] = 0;
    used -= bits;
    --indexed;
    const std::size_t step = stride + static_cast<std::size_t>(bits);
    for (std::size_t i = bind_begin[pos]; i < bind_begin[pos + 1]; ++i) {
      cell[bind_list[i]] -= step;
      if constexpr (kExtended) bound_bits[bind_list[i]] -= bits;
    }
  };

  OptimizerResult result;
  double best = std::numeric_limits<double>::infinity();
  std::uint64_t evaluated = 0;
  for (;;) {
    double search = 0.0;
    for (std::size_t k = 0; k < np; ++k) {
      search += freq[k] * search_terms[cell[k]];
    }
    double cost = maintenance_terms[indexed] + wp.lambda_r * search;
    if constexpr (kExtended) {
      double extra = 0.0;
      for (std::size_t k = 0; k < np; ++k) {
        const auto wild = static_cast<std::size_t>(used - bound_bits[k]);
        extra += freq[k] * pow2[wild] * wp.bucket_cost;
      }
      cost = cost + wp.lambda_r * extra;
    }
    ++evaluated;

    const bool enters_top =
        top_k > 0 &&
        (result.top.size() < top_k || cost < result.top.back().cost);
    if (enters_top || cost < best) {
      IndexConfig ic(alloc);
      if (enters_top) {
        const auto at = std::upper_bound(
            result.top.begin(), result.top.end(), cost,
            [](double c, const ScoredConfig& s) { return c < s.cost; });
        result.top.insert(at, ScoredConfig{ic, cost});
        if (result.top.size() > top_k) result.top.pop_back();
      }
      if (cost < best) {
        best = cost;
        result.config = std::move(ic);
      }
    }

    // Next allocation: bump the deepest position with room left, zeroing
    // every deeper one.
    std::size_t pos = n;
    while (pos > 0 && (alloc[pos - 1] >= cap || used >= budget)) {
      clear(--pos);
    }
    if (pos == 0) break;
    add_bit(pos - 1);
  }
  result.cost = best;
  result.configs_evaluated = evaluated;
  return result;
}

}  // namespace

IndexOptimizer::IndexOptimizer(CostModel model, OptimizerOptions options)
    : model_(std::move(model)), options_(options) {
  if (options_.bit_budget < 0 ||
      options_.bit_budget > IndexConfig::kMaxTotalBits) {
    throw std::invalid_argument(
        "index optimizer: bit budget " + std::to_string(options_.bit_budget) +
        " outside [0, " + std::to_string(IndexConfig::kMaxTotalBits) + "]");
  }
  if (options_.max_bits_per_attr < 0) {
    throw std::invalid_argument("index optimizer: max bits per attribute " +
                                std::to_string(options_.max_bits_per_attr) +
                                " is negative");
  }
}

OptimizerResult IndexOptimizer::optimize(
    std::size_t num_attrs, const std::vector<PatternFrequency>& patterns) const {
  check_num_attrs(num_attrs);
  return options_.use_extended_cost
             ? exhaustive_search<true>(model_, num_attrs, patterns,
                                       options_.bit_budget,
                                       options_.max_bits_per_attr,
                                       options_.track_top_k)
             : exhaustive_search<false>(model_, num_attrs, patterns,
                                        options_.bit_budget,
                                        options_.max_bits_per_attr,
                                        options_.track_top_k);
}

std::vector<AttrMask> IndexOptimizer::select_hash_modules(
    const std::vector<PatternFrequency>& patterns, std::size_t max_modules) {
  std::vector<PatternFrequency> sorted = patterns;
  std::sort(sorted.begin(), sorted.end(),
            [](const PatternFrequency& a, const PatternFrequency& b) {
              if (a.frequency != b.frequency) return a.frequency > b.frequency;
              return a.mask < b.mask;
            });
  std::vector<AttrMask> out;
  for (const PatternFrequency& p : sorted) {
    if (out.size() >= max_modules) break;
    if (p.mask == 0) continue;  // full scans need no module
    if (std::find(out.begin(), out.end(), p.mask) == out.end()) {
      out.push_back(p.mask);
    }
  }
  return out;
}

}  // namespace amri::index
