// Runtime lock-rank validator (the AMRI103 cross-check): per-thread
// acquisition order asserted against the statically generated ranks in
// src/common/lock_ranks.gen.hpp. Compiled in under AMRI_LOCK_RANK_CHECK
// (implied by AMRI_ASSERTIONS, i.e. every sanitizer preset).
#include <gtest/gtest.h>

#include "common/lock_ranks.gen.hpp"
#include "common/thread_annotations.hpp"

namespace amri {
namespace {

#if defined(AMRI_LOCK_RANK_CHECK)

TEST(LockRank, OrderedAcquisitionPasses) {
  Mutex low{lockrank::kMetricsRegistryMu};
  Mutex high{lockrank::kHistogramMu};
  MutexLock a(low);
  MutexLock b(high);  // strictly increasing rank: allowed
  SUCCEED();
}

TEST(LockRank, UnrankedMutexesAreExempt) {
  // Declared in lock order, like the test above: TSan links reused slots.
  Mutex ranked{lockrank::kEventLogMu};
  Mutex unranked;  // rank 0: the validator skips it entirely
  MutexLock a(ranked);
  MutexLock b(unranked);
  SUCCEED();
}

TEST(LockRank, ReleaseRestoresHeadroom) {
  Mutex low{lockrank::kMetricsRegistryMu};
  Mutex high{lockrank::kHistogramMu};
  {
    MutexLock a(high);
  }
  MutexLock b(low);  // high was released: a lower rank is fine again
  SUCCEED();
}

TEST(LockRankDeathTest, InversionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex low{lockrank::kShardedBitIndexShardMu};
  Mutex high{lockrank::kHistogramMu};
  EXPECT_DEATH(
      {
        MutexLock a(high);
        MutexLock b(low);
      },
      "lock-rank violation");
}

TEST(LockRankDeathTest, SameRankAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex a{lockrank::kEventLogMu};
  Mutex b{lockrank::kEventLogMu};
  EXPECT_DEATH(
      {
        MutexLock l1(a);
        MutexLock l2(b);
      },
      "lock-rank violation");
}

#else  // !AMRI_LOCK_RANK_CHECK

TEST(LockRank, ValidatorCompiledOut) {
  GTEST_SKIP() << "AMRI_LOCK_RANK_CHECK is off in this build; the "
                  "sanitizer presets compile the validator in";
}

#endif

}  // namespace
}  // namespace amri
