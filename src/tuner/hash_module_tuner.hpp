// Index tuning for the multi-hash access-module baseline (paper §V,
// "adaptive hash indices that utilize highest count compression CDIA index
// tuning and conventional index selection"): the same assessment stream
// drives conventional selection — build one hash index per most-frequent
// access pattern, capped at `max_modules`.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "assessment/assessor.hpp"
#include "common/memory_tracker.hpp"
#include "index/access_module_set.hpp"
#include "index/index_optimizer.hpp"

namespace amri::tuner {

struct HashTunerOptions {
  assessment::AssessorKind assessor =
      assessment::AssessorKind::kCdiaHighestCount;
  assessment::AssessorParams assessor_params{};
  double theta = 0.1;
  std::uint64_t reassess_every = 2000;
  std::size_t max_modules = 3;  ///< hash indices the baseline may maintain
  bool reset_stats_after_tune = true;
};

class HashModuleTuner {
 public:
  HashModuleTuner(AttrMask universe, HashTunerOptions options,
                  MemoryTracker* memory = nullptr);
  ~HashModuleTuner();

  HashModuleTuner(const HashModuleTuner&) = delete;
  HashModuleTuner& operator=(const HashModuleTuner&) = delete;

  void observe_request(AttrMask ap);
  bool tuning_due() const {
    return since_last_decision_ >= options_.reassess_every;
  }

  /// Select the masks for the most frequent patterns; retunes `modules`
  /// when the selection differs from its current masks. Returns true if
  /// the module set changed.
  bool maybe_tune(index::AccessModuleSet& modules);

  std::uint64_t decisions() const { return decisions_; }
  std::uint64_t retunes() const { return retunes_; }

 private:
  void sync_memory();

  AttrMask universe_;
  HashTunerOptions options_;
  std::unique_ptr<assessment::Assessor> assessor_;
  MemoryTracker* memory_;
  std::size_t tracked_bytes_ = 0;
  std::uint64_t since_last_decision_ = 0;
  std::uint64_t decisions_ = 0;
  std::uint64_t retunes_ = 0;
};

}  // namespace amri::tuner
