#include "index/index_migrator.hpp"

#include "common/assertions.hpp"
#include "telemetry/json.hpp"

namespace amri::index {

IndexMigrator::IndexMigrator(telemetry::Telemetry* telemetry, StreamId stream)
    : telemetry_(telemetry), stream_(stream) {
  if (telemetry_ != nullptr) {
    auto& reg = telemetry_->metrics();
    const std::string prefix = "stem." + std::to_string(stream_);
    migration_count_ = &reg.counter(prefix + ".migration.count");
    tuples_moved_ = &reg.counter(prefix + ".migration.tuples_moved");
    pause_hist_ = &reg.histogram(
        prefix + ".migration.pause_us",
        telemetry::Histogram::exponential_bounds(10.0, 4.0, 12));
  }
}

MigrationReport IndexMigrator::migrate(BitAddressIndex& index,
                                       const IndexConfig& target) const {
  MutexLock lk(mu_);
  MigrationReport report;
  report.from = index.config();
  report.to = target;
  if (index.config() == target) return report;
  // Wall-clock profiling of actual rebuilds only (the no-op path above is
  // free). Safe off the driver thread only because the profiler is null
  // unless amri_sim --profile, which drives migrations from the executor.
  telemetry::ScopedPhase migration_scope(
      telemetry_ != nullptr ? telemetry_->profiler() : nullptr,
      telemetry::Phase::kMigration);
  report.tuples_moved = index.size();
  report.hashes_charged =
      report.tuples_moved *
      static_cast<std::uint64_t>(target.indexed_attr_count());
  if (telemetry_ != nullptr) {
    telemetry::JsonWriter w;
    w.begin_object();
    w.field("from", report.from.to_string());
    w.field("to", report.to.to_string());
    w.field("tuples", report.tuples_moved);
    w.end_object();
    telemetry_->emit(telemetry::EventKind::kMigrationStart, stream_,
                     std::move(w).take());
  }
  const TimeMicros started =
      telemetry_ != nullptr ? telemetry_->now() : TimeMicros{0};
  // reconfigure() rebuckets uncharged and charges the rebuild's hashes in
  // one call; the clock is read only around the whole call.
  index.reconfigure(target);
  AMRI_CHECK_INVARIANTS(index);
  if (telemetry_ != nullptr) {
    report.pause_us = telemetry_->now() - started;
    migration_count_->add();
    tuples_moved_->add(report.tuples_moved);
    pause_hist_->observe(static_cast<double>(report.pause_us));
    telemetry::JsonWriter w;
    w.begin_object();
    w.field("to", report.to.to_string());
    w.field("tuples_moved", report.tuples_moved);
    w.field("hashes_charged", report.hashes_charged);
    w.field("pause_us", static_cast<std::int64_t>(report.pause_us));
    w.end_object();
    telemetry_->emit(telemetry::EventKind::kMigrationEnd, stream_,
                     std::move(w).take());
  }
  return report;
}

}  // namespace amri::index
