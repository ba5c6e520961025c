// Hierarchical heavy hitters over the search-benefit lattice, modelled after
// Cormode et al. (VLDB 2003 / SIGMOD 2004). This is the algorithmic core of
// CDIA: instead of *deleting* infrequent access-pattern statistics (lossy
// counting), the count of an infrequent leaf is *combined into a parent* —
// an access pattern with one fewer attribute that provides search benefit to
// the leaf — so the mass is preserved for index selection.
//
// Two combination policies from the paper (§IV-D2):
//   * kRandom       — pick a parent uniformly at random;
//   * kHighestCount — pick the materialised parent with the largest count
//                     (ties broken deterministically by mask).
//
// Invariant (tested): the sum of all node counts always equals the number of
// observations — compression moves mass, it never discards it.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "stats/lattice.hpp"

namespace amri::stats {

enum class CombinePolicy : std::uint8_t {
  kRandom = 0,
  kHighestCount,
};

class HierarchicalHeavyHitter {
 public:
  struct Result {
    AttrMask mask = 0;
    std::uint64_t count = 0;      ///< rolled-up count f*_ap · N
    std::uint64_t max_error = 0;  ///< delta of the surviving node
    double frequency = 0.0;       ///< count / observed
  };

  /// epsilon in (0,1): segment width is ceil(1/epsilon) observations.
  HierarchicalHeavyHitter(AttrMask universe, double epsilon,
                          CombinePolicy policy,
                          std::uint64_t seed = 0x5eedULL);

  const PartialLattice& lattice() const { return lattice_; }
  CombinePolicy policy() const { return policy_; }
  double epsilon() const { return epsilon_; }
  std::uint64_t segment_width() const { return segment_width_; }
  std::uint64_t observed() const { return observed_; }
  std::uint64_t segment_id() const { return observed_ / segment_width_; }
  std::size_t size() const { return lattice_.counts().size(); }

  /// Process one access-pattern observation; runs leaf compression at each
  /// segment boundary.
  void observe(AttrMask mask);

  /// Segment-boundary compression (public so tests can drive it directly).
  void compress();

  std::uint64_t seed() const { return seed_; }

  /// Inject one retained lattice node without running compression — used
  /// when rebuilding a sketch from merged per-shard snapshots. Call
  /// set_observed() afterwards so frequencies (and the mass-conservation
  /// invariant, when the loaded state was never decayed) hold.
  void load_node(AttrMask mask, std::uint64_t count, std::uint64_t max_error) {
    lattice_.counts().add(mask, count, max_error);
  }

  /// Set the observation total a loaded state was assessed over.
  void set_observed(std::uint64_t n) {
    observed_ = n;
    lattice_.counts().set_total(n);
  }

  /// Final-results rollup: bottom-up, nodes with frequency < theta donate
  /// their count to a parent; survivors are returned sorted by descending
  /// count. Non-destructive (operates on a copy).
  std::vector<Result> results(double theta) const;

  /// Total retained count mass (== observed() by the conservation invariant).
  std::uint64_t total_mass() const;

  std::size_t approx_bytes() const { return lattice_.counts().approx_bytes(); }

  void clear();

  /// Age the lattice: scale all counts and the observation total.
  void scale(double factor) {
    lattice_.counts().scale(factor);
    observed_ =
        static_cast<std::uint64_t>(static_cast<double>(observed_) * factor);
  }

 private:
  /// Choose the parent of `node` to receive its mass. `counts` is the map
  /// being operated on (live table during compress, a copy during results).
  AttrMask choose_parent(AttrMask node, const FrequencyMap& counts,
                         Rng& rng) const;

  PartialLattice lattice_;
  double epsilon_;
  std::uint64_t segment_width_;
  CombinePolicy policy_;
  std::uint64_t observed_ = 0;
  std::uint64_t seed_;
  mutable Rng rng_;
};

}  // namespace amri::stats
