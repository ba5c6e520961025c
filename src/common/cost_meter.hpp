// Cost accounting in the units of the paper's cost model (Table I):
//   C_h — average cost of computing one hash function
//   C_c — average cost of one tuple value comparison
// Every indexed operation charges these costs to a VirtualClock, so measured
// "throughput over time" reproduces the structure of the paper's Equation 1.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/types.hpp"
#include "common/virtual_clock.hpp"

namespace amri {

/// Unit costs, in virtual microseconds. Defaults are calibrated so that the
/// paper's 4-way-join workload at the default arrival rates saturates the
/// system when indexes are poor (full scans) and keeps up when they are good.
struct CostParams {
  double hash_cost_us = 0.15;       ///< C_h: one hash computation
  double compare_cost_us = 0.05;    ///< C_c: one stored-tuple comparison
  double route_cost_us = 0.10;      ///< eddy routing decision per tuple visit
  double insert_cost_us = 0.08;     ///< state insertion bookkeeping (C_insert)
  double delete_cost_us = 0.08;     ///< state expiry bookkeeping (C_delete)
  double bucket_visit_cost_us = 0.02;  ///< touching one bucket during a probe
};

/// Accumulates operation counts and charges their cost to a clock.
/// The meter can be detached (null clock) for pure counting in unit tests.
///
/// The meter is integer. Each unit cost is rounded once, at construction,
/// to the nearest whole picosecond (llround(us × 1e6): 1/3 µs charges
/// 333,333 ps), and every charge adds n × unit exactly. Integer addition
/// associates, so any grouping of the same charges (one call per unit,
/// one per kind, any order) gives the same counts, charged_us() and
/// clock. The total is whole microseconds plus a picosecond remainder
/// below one microsecond; the clock advances by each whole microsecond
/// the total crosses. Both saturate at kTimeMax.
class CostMeter {
 public:
  /// Largest accepted unit cost (1000 virtual seconds per operation).
  static constexpr double kMaxCostUs = 1e9;

  CostMeter() : CostMeter(nullptr) {}

  /// Throws std::invalid_argument naming the field unless every cost is
  /// finite, >= 0 and at most kMaxCostUs.
  explicit CostMeter(VirtualClock* clock, CostParams params = {})
      : clock_(clock),
        hash_ps_(to_picos(params.hash_cost_us, "hash_cost_us")),
        compare_ps_(to_picos(params.compare_cost_us, "compare_cost_us")),
        route_ps_(to_picos(params.route_cost_us, "route_cost_us")),
        insert_ps_(to_picos(params.insert_cost_us, "insert_cost_us")),
        delete_ps_(to_picos(params.delete_cost_us, "delete_cost_us")),
        bucket_visit_ps_(
            to_picos(params.bucket_visit_cost_us, "bucket_visit_cost_us")) {}

  void charge_hash(std::uint64_t n = 1) {
    hashes_ += n;
    charge(n, hash_ps_);
  }
  void charge_compare(std::uint64_t n = 1) {
    compares_ += n;
    charge(n, compare_ps_);
  }
  void charge_route(std::uint64_t n = 1) {
    routes_ += n;
    charge(n, route_ps_);
  }
  void charge_insert(std::uint64_t n = 1) {
    inserts_ += n;
    charge(n, insert_ps_);
  }
  void charge_delete(std::uint64_t n = 1) {
    deletes_ += n;
    charge(n, delete_ps_);
  }
  void charge_bucket_visit(std::uint64_t n = 1) {
    bucket_visits_ += n;
    charge(n, bucket_visit_ps_);
  }

  std::uint64_t hashes() const { return hashes_; }
  std::uint64_t compares() const { return compares_; }
  std::uint64_t routes() const { return routes_; }
  std::uint64_t inserts() const { return inserts_; }
  std::uint64_t deletes() const { return deletes_; }
  std::uint64_t bucket_visits() const { return bucket_visits_; }

  /// Total charged virtual time, in microseconds (for reporting: the
  /// exact total is the integer pair behind it).
  double charged_us() const {
    return static_cast<double>(whole_us_) +
           static_cast<double>(remainder_ps_) / 1e6;
  }

  void reset_counts() {
    hashes_ = compares_ = routes_ = inserts_ = deletes_ = bucket_visits_ = 0;
    // Also drop the sub-microsecond remainder pending against the clock;
    // otherwise it leaks into the first charge after a reset.
    whole_us_ = 0;
    remainder_ps_ = 0;
  }

 private:
  static constexpr std::uint64_t kPicosPerMicro = 1'000'000;

  static std::uint64_t to_picos(double us, const char* field) {
    if (!std::isfinite(us) || us < 0.0 || us > kMaxCostUs) {
      throw std::invalid_argument(
          std::string("cost meter: CostParams::") + field + " = " +
          std::to_string(us) + " must be finite, >= 0 and <= 1e9 us");
    }
    return static_cast<std::uint64_t>(
        std::llround(us * static_cast<double>(kPicosPerMicro)));
  }

  /// Add n × unit_ps (at most ~2^114 ps, so 128 bits never wrap) and move
  /// the whole microseconds out of the remainder, saturating at kTimeMax.
  void charge(std::uint64_t n, std::uint64_t unit_ps) {
    const __uint128_t ps =
        static_cast<__uint128_t>(n) * unit_ps + remainder_ps_;
    __uint128_t whole = 0;
    if ((ps >> 64) == 0) {  // the common case: 64-bit division by a constant
      const auto ps64 = static_cast<std::uint64_t>(ps);
      whole = ps64 / kPicosPerMicro;
      remainder_ps_ = ps64 % kPicosPerMicro;
    } else {
      whole = ps / kPicosPerMicro;
      remainder_ps_ = static_cast<std::uint64_t>(ps % kPicosPerMicro);
    }
    if (whole == 0) return;
    const TimeMicros ticks =
        whole >= static_cast<__uint128_t>(kTimeMax)
            ? kTimeMax
            : static_cast<TimeMicros>(whole);
    whole_us_ = whole_us_ > kTimeMax - ticks ? kTimeMax : whole_us_ + ticks;
    if (clock_ != nullptr) clock_->advance(ticks);
  }

  VirtualClock* clock_ = nullptr;
  // Unit costs in picoseconds, fixed at construction.
  std::uint64_t hash_ps_;
  std::uint64_t compare_ps_;
  std::uint64_t route_ps_;
  std::uint64_t insert_ps_;
  std::uint64_t delete_ps_;
  std::uint64_t bucket_visit_ps_;
  TimeMicros whole_us_ = 0;            ///< saturates at kTimeMax
  std::uint64_t remainder_ps_ = 0;     ///< always below kPicosPerMicro
  std::uint64_t hashes_ = 0;
  std::uint64_t compares_ = 0;
  std::uint64_t routes_ = 0;
  std::uint64_t inserts_ = 0;
  std::uint64_t deletes_ = 0;
  std::uint64_t bucket_visits_ = 0;
};

}  // namespace amri
