// Cost accounting in the units of the paper's cost model (Table I):
//   C_h — average cost of computing one hash function
//   C_c — average cost of one tuple value comparison
// Every indexed operation charges these costs to a VirtualClock, so measured
// "throughput over time" reproduces the structure of the paper's Equation 1.
#pragma once

#include <cstdint>

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
class CostMeter {
 public:
  CostMeter() = default;
  explicit CostMeter(VirtualClock* clock, CostParams params = {})
      : clock_(clock), params_(params) {}

  const CostParams& params() const { return params_; }
  void set_params(const CostParams& p) { params_ = p; }
  void attach(VirtualClock* clock) { clock_ = clock; }

  void charge_hash(std::uint64_t n = 1) {
    hashes_ += n;
    charge(static_cast<double>(n) * params_.hash_cost_us);
  }
  void charge_compare(std::uint64_t n = 1) {
    compares_ += n;
    charge(static_cast<double>(n) * params_.compare_cost_us);
  }
  void charge_route(std::uint64_t n = 1) {
    routes_ += n;
    charge(static_cast<double>(n) * params_.route_cost_us);
  }
  void charge_insert(std::uint64_t n = 1) {
    inserts_ += n;
    charge(static_cast<double>(n) * params_.insert_cost_us);
  }
  void charge_delete(std::uint64_t n = 1) {
    deletes_ += n;
    charge(static_cast<double>(n) * params_.delete_cost_us);
  }
  void charge_bucket_visit(std::uint64_t n = 1) {
    bucket_visits_ += n;
    charge(static_cast<double>(n) * params_.bucket_visit_cost_us);
  }

  /// One bucket visit and the comparison of its `n` stored tuples. Equal
  /// bit for bit to charge_bucket_visit() followed by n charge_compare()
  /// calls: the same additions in the same order, run on local copies of
  /// the running sums, with the whole ticks advanced once at the end.
  /// Nothing reads the meter or the clock inside a scan and the clock
  /// saturates, so one advance lands where n + 1 would. (charge_compare(n)
  /// multiplies, which rounds differently.)
  void charge_bucket_scan(std::uint64_t n) {
    bucket_visits_ += 1;
    compares_ += n;
    const double visit = params_.bucket_visit_cost_us;
    const double compare = params_.compare_cost_us;
    double charged = charged_us_ + visit;
    double fractional = fractional_;
    TimeMicros ticks = 0;
    accrue(fractional, ticks, visit);
    for (std::uint64_t i = 0; i < n; ++i) {
      charged += compare;
      accrue(fractional, ticks, compare);
    }
    charged_us_ = charged;
    if (clock_ == nullptr) return;  // a detached meter keeps no remainder
    fractional_ = fractional;
    if (ticks > 0) clock_->advance(ticks);
  }

  std::uint64_t hashes() const { return hashes_; }
  std::uint64_t compares() const { return compares_; }
  std::uint64_t routes() const { return routes_; }
  std::uint64_t inserts() const { return inserts_; }
  std::uint64_t deletes() const { return deletes_; }
  std::uint64_t bucket_visits() const { return bucket_visits_; }

  /// Total charged virtual time, in microseconds.
  double charged_us() const { return charged_us_; }

  void reset_counts() {
    hashes_ = compares_ = routes_ = inserts_ = deletes_ = bucket_visits_ = 0;
    charged_us_ = 0.0;
    // Also drop the sub-microsecond remainder pending against the clock;
    // otherwise it leaks into the first charge after a reset.
    fractional_ = 0.0;
  }

 private:
  void charge(double us) {
    charged_us_ += us;
    if (clock_ != nullptr) {
      TimeMicros ticks = 0;
      accrue(fractional_, ticks, us);
      if (ticks > 0) clock_->advance(ticks);
    }
  }

  /// Accumulate fractional microseconds and move the whole ones into
  /// `ticks` (saturating, like the clock) for the caller to advance.
  static void accrue(double& fractional, TimeMicros& ticks, double us) {
    fractional += us;
    const auto whole = static_cast<TimeMicros>(fractional);
    if (whole > 0) {
      ticks = ticks > kTimeMax - whole ? kTimeMax : ticks + whole;
      fractional -= static_cast<double>(whole);
    }
  }

  VirtualClock* clock_ = nullptr;
  CostParams params_{};
  double fractional_ = 0.0;
  double charged_us_ = 0.0;
  std::uint64_t hashes_ = 0;
  std::uint64_t compares_ = 0;
  std::uint64_t routes_ = 0;
  std::uint64_t inserts_ = 0;
  std::uint64_t deletes_ = 0;
  std::uint64_t bucket_visits_ = 0;
};

}  // namespace amri
