// Generated by tools/amri_ast_lint.py --emit-ranks. Do not edit.
// Static Mutex acquisition order (AMRI103): a thread may only
// acquire a mutex with a strictly greater rank than every mutex
// it already holds. Regenerate after changing lock structure:
//   python3 tools/amri_ast_lint.py src
//       --emit-ranks src/common/lock_ranks.gen.hpp
#pragma once

namespace amri::lockrank {

// MetricsRegistry::mu_
inline constexpr int kMetricsRegistryMu = 10;
// ShardedBitIndex::Shard::mu
inline constexpr int kShardedBitIndexShardMu = 20;
// IndexMigrator::mu_
inline constexpr int kIndexMigratorMu = 30;
// EventLog::mu_
inline constexpr int kEventLogMu = 40;
// Histogram::mu_
inline constexpr int kHistogramMu = 50;

}  // namespace amri::lockrank
