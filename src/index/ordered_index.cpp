#include "index/ordered_index.hpp"

#include <cassert>

namespace amri::index {

namespace {
// Red-black tree node: key, pointer, three links + color.
constexpr std::size_t kNodeOverhead = 64;
}  // namespace

OrderedIndex::OrderedIndex(JoinAttributeSet jas, std::size_t key_pos,
                           CostMeter* meter, MemoryTracker* memory)
    : jas_(std::move(jas)), key_pos_(key_pos), meter_(meter),
      memory_(memory) {
  assert(key_pos_ < jas_.size());
}

OrderedIndex::~OrderedIndex() {
  if (memory_ != nullptr && tracked_bytes_ > 0) {
    memory_->release(MemCategory::kIndexStructure, tracked_bytes_);
  }
}

void OrderedIndex::sync_memory() {
  const std::size_t now = memory_bytes();
  if (memory_ != nullptr) {
    if (now > tracked_bytes_) {
      memory_->allocate(MemCategory::kIndexStructure, now - tracked_bytes_);
    } else if (now < tracked_bytes_) {
      memory_->release(MemCategory::kIndexStructure, tracked_bytes_ - now);
    }
  }
  tracked_bytes_ = now;
}

void OrderedIndex::insert(const Tuple* t) {
  assert(t != nullptr);
  table_.emplace(t->at(jas_.tuple_attr(key_pos_)), t);
  // Tree descent cost modelled as one hash-equivalent.
  if (meter_ != nullptr) {
    meter_->charge_hash();
    meter_->charge_insert();
  }
  sync_memory();
}

void OrderedIndex::erase(const Tuple* t) {
  assert(t != nullptr);
  const auto [lo, hi] = table_.equal_range(t->at(jas_.tuple_attr(key_pos_)));
  for (auto it = lo; it != hi; ++it) {
    if (it->second == t) {
      table_.erase(it);
      break;
    }
  }
  if (meter_ != nullptr) meter_->charge_delete();
  sync_memory();
}

void OrderedIndex::charge_probe(const ProbeStats& stats) {
  if (meter_ == nullptr) return;
  meter_->charge_hash();  // tree descent
  meter_->charge_bucket_visit(stats.buckets_visited);
  meter_->charge_compare(stats.tuples_compared);
}

ProbeStats OrderedIndex::probe(const ProbeKey& key,
                               std::vector<const Tuple*>& out) {
  assert(has_bit(key.mask, static_cast<unsigned>(key_pos_)));
  ProbeStats stats;
  stats.buckets_visited = 1;
  const auto [lo, hi] = table_.equal_range(key.values[key_pos_]);
  for (auto it = lo; it != hi; ++it) {
    ++stats.tuples_compared;
    if (key.matches(*it->second, jas_)) {
      out.push_back(it->second);
      ++stats.matches;
    }
  }
  charge_probe(stats);
  return stats;
}

ProbeStats OrderedIndex::probe_range(const RangeProbeKey& key,
                                     std::vector<const Tuple*>& out) {
  ProbeStats stats;
  stats.buckets_visited = 1;
  auto lo = table_.begin();
  auto hi = table_.end();
  if (key.bound(key_pos_)) {
    lo = table_.lower_bound(key.los[key_pos_]);
    hi = table_.upper_bound(key.his[key_pos_]);
  }
  for (auto it = lo; it != hi; ++it) {
    ++stats.tuples_compared;
    if (key.matches(*it->second, jas_)) {
      out.push_back(it->second);
      ++stats.matches;
    }
  }
  charge_probe(stats);
  return stats;
}

std::size_t OrderedIndex::memory_bytes() const {
  return table_.size() * kNodeOverhead;
}

std::string OrderedIndex::name() const {
  return "ordered(pos=" + std::to_string(key_pos_) + ")";
}

void OrderedIndex::clear() {
  table_.clear();
  sync_memory();
}

}  // namespace amri::index
