#include "index/scan_index.hpp"

#include <algorithm>
#include <cassert>

namespace amri::index {

ScanIndex::ScanIndex(JoinAttributeSet jas, CostMeter* meter,
                     MemoryTracker* memory)
    : jas_(std::move(jas)), meter_(meter), memory_(memory) {}

ScanIndex::~ScanIndex() {
  if (memory_ != nullptr && tracked_bytes_ > 0) {
    memory_->release(MemCategory::kIndexStructure, tracked_bytes_);
  }
}

void ScanIndex::sync_memory() {
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

void ScanIndex::insert(const Tuple* t) {
  assert(t != nullptr);
  tuples_.push_back(t);
  if (meter_ != nullptr) meter_->charge_insert();
  sync_memory();
}

void ScanIndex::erase(const Tuple* t) {
  const auto it = std::find(tuples_.begin(), tuples_.end(), t);
  if (it == tuples_.end()) return;
  *it = tuples_.back();
  tuples_.pop_back();
  if (meter_ != nullptr) meter_->charge_delete();
  sync_memory();
}

ProbeStats ScanIndex::probe(const ProbeKey& key,
                            std::vector<const Tuple*>& out) {
  ProbeStats stats;
  stats.buckets_visited = 1;
  stats.tuples_compared = tuples_.size();
  for (const Tuple* t : tuples_) {
    if (key.matches(*t, jas_)) {
      out.push_back(t);
      ++stats.matches;
    }
  }
  if (meter_ != nullptr) {
    meter_->charge_bucket_visit(stats.buckets_visited);
    meter_->charge_compare(stats.tuples_compared);
  }
  return stats;
}

}  // namespace amri::index
