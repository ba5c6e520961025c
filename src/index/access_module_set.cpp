#include "index/access_module_set.hpp"

#include <algorithm>
#include <cassert>

namespace amri::index {

AccessModuleSet::AccessModuleSet(JoinAttributeSet jas,
                                 std::vector<AttrMask> module_masks,
                                 CostMeter* meter, MemoryTracker* memory)
    : jas_(jas), meter_(meter), memory_(memory), scan_(jas, meter, memory) {
  modules_.reserve(module_masks.size());
  for (const AttrMask mask : module_masks) {
    modules_.push_back(std::make_unique<HashIndex>(jas_, mask, meter, memory));
  }
}

std::vector<AttrMask> AccessModuleSet::module_masks() const {
  std::vector<AttrMask> out;
  out.reserve(modules_.size());
  for (const auto& m : modules_) out.push_back(m->key_mask());
  return out;
}

const HashIndex* AccessModuleSet::module_for(AttrMask probe_mask) const {
  const HashIndex* best = nullptr;
  for (const auto& m : modules_) {
    if (!m->serves(probe_mask)) continue;
    if (best == nullptr || popcount(m->key_mask()) > popcount(best->key_mask()) ||
        (popcount(m->key_mask()) == popcount(best->key_mask()) &&
         m->key_mask() < best->key_mask())) {
      best = m.get();
    }
  }
  return best;
}

void AccessModuleSet::insert(const Tuple* t) {
  scan_.insert(t);
  for (const auto& m : modules_) m->insert(t);
}

void AccessModuleSet::erase(const Tuple* t) {
  scan_.erase(t);
  for (const auto& m : modules_) m->erase(t);
}

ProbeStats AccessModuleSet::probe(const ProbeKey& key,
                                  std::vector<const Tuple*>& out) {
  // module_for is const lookup; we need the mutable module to probe.
  HashIndex* chosen = nullptr;
  for (const auto& m : modules_) {
    if (!m->serves(key.mask)) continue;
    if (chosen == nullptr ||
        popcount(m->key_mask()) > popcount(chosen->key_mask()) ||
        (popcount(m->key_mask()) == popcount(chosen->key_mask()) &&
         m->key_mask() < chosen->key_mask())) {
      chosen = m.get();
    }
  }
  if (chosen != nullptr) return chosen->probe(key, out);
  ++scan_fallbacks_;
  return scan_.probe(key, out);
}

std::size_t AccessModuleSet::memory_bytes() const {
  std::size_t total = scan_.memory_bytes();
  for (const auto& m : modules_) total += m->memory_bytes();
  return total;
}

std::string AccessModuleSet::name() const {
  return "access_modules(x" + std::to_string(modules_.size()) + ")";
}

void AccessModuleSet::retune(const std::vector<AttrMask>& new_masks) {
  // Keep modules whose mask survives; build the others from scratch.
  // Rebuilding hashes every stored tuple — the adaptation cost the paper
  // attributes to "create and delete multiple hash keys per tuple".
  std::vector<std::unique_ptr<HashIndex>> next;
  std::vector<HashIndex*> fresh;
  next.reserve(new_masks.size());
  for (const AttrMask mask : new_masks) {
    assert(mask != 0);
    const auto existing = std::find_if(
        modules_.begin(), modules_.end(),
        [mask](const auto& m) { return m && m->key_mask() == mask; });
    if (existing != modules_.end()) {
      next.push_back(std::move(*existing));
      continue;
    }
    next.push_back(std::make_unique<HashIndex>(jas_, mask, meter_, memory_));
    fresh.push_back(next.back().get());
  }
  if (!fresh.empty() && scan_.size() > 0) {
    // A zero-bound probe matches every stored tuple; the comparison charge
    // models the rebuild's pass over the state.
    std::vector<const Tuple*> all;
    ProbeKey match_all;
    match_all.mask = 0;
    match_all.values.resize(jas_.size(), Value{0});
    scan_.probe(match_all, all);
    for (HashIndex* m : fresh) m->bulk_load(all);
  }
  modules_ = std::move(next);
}

}  // namespace amri::index
