#include "tuner/hash_module_tuner.hpp"

#include <algorithm>
#include <cassert>

namespace amri::tuner {

HashModuleTuner::HashModuleTuner(AttrMask universe, HashTunerOptions options,
                                 MemoryTracker* memory)
    : universe_(universe),
      options_(options),
      assessor_(assessment::make_assessor(options.assessor, universe,
                                          options.assessor_params)),
      memory_(memory) {
  assert(assessor_ != nullptr);
}

HashModuleTuner::~HashModuleTuner() {
  if (memory_ != nullptr && tracked_bytes_ > 0) {
    memory_->release(MemCategory::kStatistics, tracked_bytes_);
  }
}

void HashModuleTuner::sync_memory() {
  if (memory_ == nullptr) return;
  const std::size_t now = assessor_->approx_bytes();
  if (now > tracked_bytes_) {
    memory_->allocate(MemCategory::kStatistics, now - tracked_bytes_);
  } else if (now < tracked_bytes_) {
    memory_->release(MemCategory::kStatistics, tracked_bytes_ - now);
  }
  tracked_bytes_ = now;
}

void HashModuleTuner::observe_request(AttrMask ap) {
  assert(is_subset(ap, universe_));
  assessor_->observe(ap);
  ++since_last_decision_;
  sync_memory();
}

bool HashModuleTuner::maybe_tune(index::AccessModuleSet& modules) {
  ++decisions_;
  since_last_decision_ = 0;
  const auto frequent = assessor_->results(options_.theta);
  const auto freqs = assessment::to_pattern_frequencies(frequent);
  auto masks =
      index::IndexOptimizer::select_hash_modules(freqs, options_.max_modules);
  if (options_.reset_stats_after_tune) {
    assessor_->reset();
    sync_memory();
  }
  if (masks.empty()) return false;  // no signal: keep the current modules
  auto current = modules.module_masks();
  std::sort(masks.begin(), masks.end());
  std::sort(current.begin(), current.end());
  if (masks == current) return false;
  modules.retune(masks);
  ++retunes_;
  return true;
}

}  // namespace amri::tuner
