#include "stats/hierarchical_hh.hpp"

#include <algorithm>
#include <cassert>

namespace amri::stats {

HierarchicalHeavyHitter::HierarchicalHeavyHitter(AttrMask universe,
                                                 double epsilon,
                                                 CombinePolicy policy,
                                                 std::uint64_t seed)
    : lattice_(universe), epsilon_(epsilon), policy_(policy), seed_(seed),
      rng_(seed) {
  assert(epsilon > 0.0 && epsilon < 1.0);
  segment_width_ = static_cast<std::uint64_t>(1.0 / epsilon);
  if (static_cast<double>(segment_width_) * epsilon < 1.0) ++segment_width_;
  if (segment_width_ == 0) segment_width_ = 1;
}

void HierarchicalHeavyHitter::observe(AttrMask mask) {
  assert(is_subset(mask, lattice_.shape().universe()));
  const std::uint64_t sid = segment_id();
  auto& counts = lattice_.counts();
  if (counts.find(mask) == nullptr) {
    counts.add(mask, 1, sid == 0 ? 0 : sid - 1);
  } else {
    counts.add(mask);
  }
  ++observed_;
  if (observed_ % segment_width_ == 0) compress();
}

AttrMask HierarchicalHeavyHitter::choose_parent(AttrMask node,
                                                const FrequencyMap& counts,
                                                Rng& rng) const {
  assert(node != 0);  // the lattice top has no parent
  const auto parent_masks = lattice_.shape().parents(node);
  // Prefer materialised parents (the paper adds to an existing parent when
  // one exists and only creates a node otherwise).
  std::vector<AttrMask> existing;
  for (AttrMask p : parent_masks) {
    if (counts.find(p) != nullptr) existing.push_back(p);
  }
  if (!existing.empty()) {
    if (policy_ == CombinePolicy::kRandom) {
      return existing[rng.below(existing.size())];
    }
    // Highest count; deterministic tie-break on the smaller mask.
    std::sort(existing.begin(), existing.end());
    AttrMask best = existing.front();
    std::uint64_t best_count = counts.find(best)->count;
    for (AttrMask p : existing) {
      const std::uint64_t c = counts.find(p)->count;
      if (c > best_count) {
        best = p;
        best_count = c;
      }
    }
    return best;
  }
  // No materialised parent: create one.
  if (policy_ == CombinePolicy::kRandom) {
    return parent_masks[rng.below(parent_masks.size())];
  }
  return *std::min_element(parent_masks.begin(), parent_masks.end());
}

void HierarchicalHeavyHitter::compress() {
  const std::uint64_t sid = segment_id();
  auto& counts = lattice_.counts();
  // Snapshot the leaves first: merging a leaf into a parent can turn other
  // nodes into non-leaves, so we evaluate leaf status against the state at
  // the start of the pass, deepest level first (paper processes leaf nodes).
  const std::vector<AttrMask> leaf_masks = lattice_.leaves();
  for (const AttrMask leaf : leaf_masks) {
    if (leaf == 0) continue;  // top of lattice: no parent to merge into
    const FreqEntry* entry = counts.find(leaf);
    if (entry == nullptr) continue;  // already merged away this pass
    if (entry->count + entry->max_error > sid) continue;  // still frequent
    const std::uint64_t mass = entry->count;
    const AttrMask parent = choose_parent(leaf, counts, rng_);
    if (counts.find(parent) != nullptr) {
      counts.add(parent, mass);
    } else {
      counts.add(parent, mass, sid == 0 ? 0 : sid - 1);
    }
    // add() bumped total_observed; rebalance since this is moved mass, not
    // a new observation.
    counts.set_total(counts.total_observed() - mass);
    counts.erase(leaf);
  }
}

std::vector<HierarchicalHeavyHitter::Result>
HierarchicalHeavyHitter::results(double theta) const {
  // Operate on a copy so assessment can continue afterwards.
  FrequencyMap work = lattice_.counts();
  Rng rng(seed_ ^ 0xf00dULL);  // deterministic per-instance rollup
  const double n = static_cast<double>(observed_);
  std::vector<Result> out;
  if (observed_ == 0) return out;

  // Bottom-up over materialised nodes. Recompute the order lazily because
  // rollups can create new (parent) nodes that themselves need processing;
  // a node at level L only ever donates to level L-1, so processing levels
  // from deepest to shallowest visits every node exactly once.
  const int max_level = lattice_.shape().num_attrs();
  for (int lvl = max_level; lvl >= 0; --lvl) {
    // Collect nodes at this level (deterministic order).
    std::vector<AttrMask> level_nodes;
    for (const auto& [mask, entry] : work) {
      (void)entry;
      if (Lattice::level(mask) == lvl) level_nodes.push_back(mask);
    }
    std::sort(level_nodes.begin(), level_nodes.end());
    for (const AttrMask mask : level_nodes) {
      const FreqEntry* entry = work.find(mask);
      if (entry == nullptr) continue;
      const double freq = static_cast<double>(entry->count) / n;
      if (freq >= theta || mask == 0) {
        if (freq >= theta) {
          out.push_back(Result{mask, entry->count, entry->max_error, freq});
        }
        continue;  // lattice top below theta simply drops out
      }
      const std::uint64_t mass = entry->count;
      const std::uint64_t err = entry->max_error;
      const AttrMask parent = choose_parent(mask, work, rng);
      if (work.find(parent) != nullptr) {
        work.add(parent, mass);
      } else {
        work.add(parent, mass, err);
      }
      work.set_total(work.total_observed() - mass);
      work.erase(mask);
    }
  }
  std::sort(out.begin(), out.end(), [](const Result& a, const Result& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.mask < b.mask;
  });
  return out;
}

std::uint64_t HierarchicalHeavyHitter::total_mass() const {
  std::uint64_t sum = 0;
  for (const auto& [mask, entry] : lattice_.counts()) {
    (void)mask;
    sum += entry.count;
  }
  return sum;
}

void HierarchicalHeavyHitter::clear() {
  lattice_.counts().clear();
  observed_ = 0;
}

}  // namespace amri::stats
