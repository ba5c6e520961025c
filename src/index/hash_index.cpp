#include "index/hash_index.hpp"

#include <cassert>

namespace amri::index {

namespace {
// Per-entry cost of an unordered_multimap node: key, pointer, node links.
constexpr std::size_t kEntryOverhead = 48;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 32;
  return h;
}
}  // namespace

HashIndex::HashIndex(JoinAttributeSet jas, AttrMask key_mask, CostMeter* meter,
                     MemoryTracker* memory)
    : jas_(std::move(jas)), key_mask_(key_mask), meter_(meter),
      memory_(memory) {
  assert(key_mask != 0);
  assert(is_subset(key_mask, jas_.universe()));
}

HashIndex::~HashIndex() {
  if (memory_ != nullptr && tracked_bytes_ > 0) {
    memory_->release(MemCategory::kIndexStructure, tracked_bytes_);
  }
}

std::uint64_t HashIndex::hash_tuple(const Tuple& t) const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for_each_bit(key_mask_, [&](unsigned pos) {
    h = mix(h, static_cast<std::uint64_t>(t.at(jas_.tuple_attr(pos))));
  });
  return h;
}

std::uint64_t HashIndex::hash_key(const ProbeKey& key) const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for_each_bit(key_mask_, [&](unsigned pos) {
    h = mix(h, static_cast<std::uint64_t>(key.values[pos]));
  });
  return h;
}

void HashIndex::sync_memory() {
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

void HashIndex::insert(const Tuple* t) {
  assert(t != nullptr);
  table_.emplace(hash_tuple(*t), t);
  ++size_;
  if (meter_ != nullptr) {
    meter_->charge_hash(key_hashes());
    meter_->charge_insert();
  }
  sync_memory();
}

void HashIndex::bulk_load(const std::vector<const Tuple*>& tuples) {
  for (const Tuple* t : tuples) table_.emplace(hash_tuple(*t), t);
  size_ += tuples.size();
  if (meter_ != nullptr) {
    meter_->charge_hash(tuples.size() * key_hashes());
    meter_->charge_insert(tuples.size());
  }
  sync_memory();
}

void HashIndex::erase(const Tuple* t) {
  assert(t != nullptr);
  const std::uint64_t h = hash_tuple(*t);
  const auto [lo, hi] = table_.equal_range(h);
  for (auto it = lo; it != hi; ++it) {
    if (it->second == t) {
      table_.erase(it);
      --size_;
      break;
    }
  }
  if (meter_ != nullptr) {
    meter_->charge_hash(key_hashes());
    meter_->charge_delete();
  }
  sync_memory();
}

ProbeStats HashIndex::probe(const ProbeKey& key,
                            std::vector<const Tuple*>& out) {
  assert(serves(key.mask));
  ProbeStats stats;
  const std::uint64_t h = hash_key(key);
  stats.buckets_visited = 1;
  const auto [lo, hi] = table_.equal_range(h);
  for (auto it = lo; it != hi; ++it) {
    ++stats.tuples_compared;
    if (key.matches(*it->second, jas_)) {
      out.push_back(it->second);
      ++stats.matches;
    }
  }
  if (meter_ != nullptr) {
    meter_->charge_hash(key_hashes());
    meter_->charge_bucket_visit(stats.buckets_visited);
    meter_->charge_compare(stats.tuples_compared);
  }
  return stats;
}

std::size_t HashIndex::memory_bytes() const {
  return table_.size() * kEntryOverhead + table_.bucket_count() * sizeof(void*);
}

std::string HashIndex::name() const {
  return "hash" + pattern_to_string(key_mask_, jas_.size());
}

}  // namespace amri::index
