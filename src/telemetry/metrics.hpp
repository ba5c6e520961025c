// Metric primitives for the always-compiled telemetry layer: named
// counters, gauges, and fixed-bucket histograms collected in a
// MetricsRegistry owned by the component that runs an experiment (one per
// Executor). Producers resolve a metric once at construction and hold the
// returned reference/pointer; the disabled path is a null-pointer branch,
// so hot loops pay nothing when telemetry is off.
//
// Thread safety: instruments may be updated from several threads (the
// concurrent stress tests). Counter/Gauge use relaxed atomics —
// they are independent statistics, not synchronization; Histogram and the
// registry's name maps are mutex-guarded and annotated for Clang TSA.
// The by-reference map accessors are for post-run export and require the
// registry to be quiescent (no concurrent registration).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/lock_ranks.gen.hpp"
#include "common/thread_annotations.hpp"

namespace amri::telemetry {

/// Monotonically increasing event count. Lock-free; cross-thread updates
/// use relaxed ordering (the value is a statistic, not a synchronizer).
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value. Lock-free, relaxed ordering.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: bucket i holds observations v <= bounds[i] and
/// > bounds[i-1]; one implicit +inf overflow bucket follows the last bound.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  /// `count` bounds: start, start*factor, start*factor^2, ...
  static std::vector<double> exponential_bounds(double start, double factor,
                                                std::size_t count);
  /// `count` bounds: start, start+step, start+2*step, ...
  static std::vector<double> linear_bounds(double start, double step,
                                           std::size_t count);

  void observe(double v) AMRI_EXCLUDES(mu_);

  std::uint64_t count() const AMRI_EXCLUDES(mu_);
  double sum() const AMRI_EXCLUDES(mu_);
  double mean() const AMRI_EXCLUDES(mu_);
  double max_observed() const AMRI_EXCLUDES(mu_);

  /// Estimated q-quantile (q in [0,1]), linearly interpolated inside the
  /// bucket holding rank ceil(q*count): the same estimate Prometheus'
  /// histogram_quantile computes. The overflow bucket has no upper bound,
  /// so ranks landing there report max_observed(); an empty histogram
  /// reports 0.
  double percentile(double q) const AMRI_EXCLUDES(mu_);

  /// Bucket upper bounds; immutable after construction, safe to reference.
  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts snapshot; size == bounds().size()
  /// + 1, the final entry being the +inf overflow bucket.
  std::vector<std::uint64_t> bucket_counts() const AMRI_EXCLUDES(mu_);

  void reset() AMRI_EXCLUDES(mu_);

 private:
  const std::vector<double> bounds_;  ///< ascending upper bounds
  mutable Mutex mu_{lockrank::kHistogramMu};
  std::vector<std::uint64_t> buckets_
      AMRI_GUARDED_BY(mu_);  ///< bounds_.size() + 1 entries
  std::uint64_t count_ AMRI_GUARDED_BY(mu_) = 0;
  double sum_ AMRI_GUARDED_BY(mu_) = 0.0;
  double max_ AMRI_GUARDED_BY(mu_) = 0.0;
};

/// Name-keyed metric store. Lookup is O(log n) string compare — producers
/// are expected to resolve names once, outside hot paths. References stay
/// stable for the registry's lifetime (node-based map storage), and
/// iteration order is deterministic (sorted by name) so exports diff
/// cleanly between runs. Registration/lookup is mutex-guarded; resolved
/// instruments are individually thread-safe.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name) AMRI_EXCLUDES(mu_);
  Gauge& gauge(std::string_view name) AMRI_EXCLUDES(mu_);
  /// Creates the histogram with `bounds` on first use; subsequent calls
  /// with the same name return the existing histogram and ignore `bounds`.
  Histogram& histogram(std::string_view name, std::vector<double> bounds)
      AMRI_EXCLUDES(mu_);

  const Counter* find_counter(std::string_view name) const AMRI_EXCLUDES(mu_);
  const Gauge* find_gauge(std::string_view name) const AMRI_EXCLUDES(mu_);
  const Histogram* find_histogram(std::string_view name) const
      AMRI_EXCLUDES(mu_);

  // Whole-map accessors for exporters. Quiescent use only: no concurrent
  // registration may run while iterating (export happens after the run).
  const std::map<std::string, Counter, std::less<>>& counters() const
      AMRI_NO_THREAD_SAFETY_ANALYSIS {
    return counters_;
  }
  const std::map<std::string, Gauge, std::less<>>& gauges() const
      AMRI_NO_THREAD_SAFETY_ANALYSIS {
    return gauges_;
  }
  const std::map<std::string, Histogram, std::less<>>& histograms() const
      AMRI_NO_THREAD_SAFETY_ANALYSIS {
    return histograms_;
  }

  std::size_t size() const AMRI_EXCLUDES(mu_);
  void clear() AMRI_EXCLUDES(mu_);

 private:
  mutable Mutex mu_{lockrank::kMetricsRegistryMu};
  std::map<std::string, Counter, std::less<>> counters_ AMRI_GUARDED_BY(mu_);
  std::map<std::string, Gauge, std::less<>> gauges_ AMRI_GUARDED_BY(mu_);
  std::map<std::string, Histogram, std::less<>> histograms_
      AMRI_GUARDED_BY(mu_);
};

}  // namespace amri::telemetry
