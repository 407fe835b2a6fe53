// Cross-layer metrics: the registry every subsystem publishes into.
//
// The paper's ecosystem is built on continuous low-level monitoring
// (HealthLog/StressLog feeding the Predictor and the cloud layer); this
// library is the reproduction's equivalent for observing the *stack
// itself*: every layer registers counters, gauges and fixed-bucket
// histograms under a stable dotted namespace (`sim.`, `daemon.*`,
// `ecc.`, `hv.`, `cloud.`) and exporters turn one snapshot into JSON or
// CSV (see export.h, docs/OBSERVABILITY.md for the catalog).
//
// Lock-cheap by design: registration (rare) takes a mutex; the hot
// paths — Counter::add, Gauge::set, Histogram::record — are relaxed
// atomics on pre-registered objects whose addresses are stable for the
// registry's lifetime. A histogram only its owner writes is a
// LocalHistogram: the same bucket and percentile math on plain
// counters. Metrics are observational only; nothing in the
// models reads them back, so instrumentation can never perturb a
// deterministic run.
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/annotations.h"

namespace uniserver::telemetry {

enum class MetricType { kCounter, kGauge, kHistogram };

const char* to_string(MetricType type);

/// Identity and documentation of a registered metric.
struct MetricMeta {
  std::string name;  ///< dotted namespace, e.g. "cloud.mig.completed"
  MetricType type{MetricType::kCounter};
  std::string unit;  ///< "events", "us", "kwh", ... ("" = dimensionless)
  std::string help;  ///< one-line description for the catalog
};

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double v) { value_.fetch_add(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

namespace detail {

/// A tally shared across threads: relaxed atomics, and CAS loops for
/// the extremes because std::atomic<double> has no fetch_min/fetch_max.
template <class T>
class AtomicCell {
 public:
  explicit AtomicCell(T v = T{}) : value_(v) {}
  void add(T n) { value_.fetch_add(n, std::memory_order_relaxed); }
  T load() const { return value_.load(std::memory_order_relaxed); }
  void store(T v) { value_.store(v, std::memory_order_relaxed); }
  void lower_to(T x) {
    T cur = load();
    while (x < cur && !value_.compare_exchange_weak(
                          cur, x, std::memory_order_relaxed)) {
    }
  }
  void raise_to(T x) {
    T cur = load();
    while (x > cur && !value_.compare_exchange_weak(
                          cur, x, std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<T> value_;
};

/// A tally only its owner writes: plain loads and stores.
template <class T>
class PlainCell {
 public:
  explicit PlainCell(T v = T{}) : value_(v) {}
  void add(T n) { value_ += n; }
  T load() const { return value_; }
  void store(T v) { value_ = v; }
  void lower_to(T x) {
    if (x < value_) value_ = x;
  }
  void raise_to(T x) {
    if (x > value_) value_ = x;
  }

 private:
  T value_;
};

}  // namespace detail

/// Fixed-width-bucket histogram over [lo, hi); out-of-range samples
/// clamp into the edge buckets so no mass is lost (same policy as
/// common/stats.h), but the clamp is *tracked*: `underflow()` and
/// `overflow()` count the samples that landed outside the range and
/// `observed_min()`/`observed_max()` keep the true extremes, so tail
/// quantiles are never silently flattened to `hi` — an SLO layer must
/// be able to trust p999. Non-finite samples (NaN/±inf — e.g. a rate
/// over a zero-duration interval) are rejected and tallied in
/// `invalid()` instead of poisoning the buckets. Percentiles
/// interpolate linearly inside a bucket, so they are exact to within
/// one bucket width for in-range mass; ranks that fall into the
/// underflow/overflow mass return the true observed min/max.
///
/// `Cell` holds each tally. The bucket and percentile math is written
/// once, here, for both instantiations: `Histogram` (relaxed atomics,
/// any number of writers; the registry's kind) and `LocalHistogram`
/// (plain counters for a histogram only its owner writes, such as a
/// serving layer's request latency, which it records once per request).
template <template <class> class Cell>
class BasicHistogram {
 public:
  BasicHistogram(double lo, double hi, std::size_t buckets);

  void record(double x) {
    if (!std::isfinite(x)) {
      // NaN/±inf would poison sum_ and the extremes; reject the sample
      // but keep it visible via the invalid tally.
      invalid_.add(1);
      return;
    }
    // Clamped while still a double, so no finite sample, however far
    // out of range, reaches an out-of-range integer cast.
    const double slot = std::floor((x - lo_) / bucket_width());
    const std::size_t last = counts_.size() - 1;
    std::size_t index = last;
    if (slot < 0.0) {
      underflow_.add(1);
      index = 0;
    } else if (slot > static_cast<double>(last)) {
      overflow_.add(1);
    } else {
      index = static_cast<std::size_t>(slot);
    }
    counts_[index].add(1);
    count_.add(1);
    sum_.add(x);
    min_.lower_to(x);
    max_.raise_to(x);
  }

  std::uint64_t count() const { return count_.load(); }
  /// Non-finite samples rejected by record().
  std::uint64_t invalid() const { return invalid_.load(); }
  /// Finite samples below lo / at-or-above hi (clamped into the edge
  /// buckets but counted here so the distortion is visible).
  std::uint64_t underflow() const { return underflow_.load(); }
  std::uint64_t overflow() const { return overflow_.load(); }
  /// True extremes over all recorded finite samples (0 when empty).
  double observed_min() const { return count() == 0 ? 0.0 : min_.load(); }
  double observed_max() const { return count() == 0 ? 0.0 : max_.load(); }
  double sum() const { return sum_.load(); }
  double mean() const;

  std::size_t buckets() const { return counts_.size(); }
  std::uint64_t bucket_count(std::size_t i) const {
    return counts_.at(i).load();
  }
  double bucket_low(std::size_t i) const;
  double bucket_high(std::size_t i) const;
  double bucket_width() const {
    return (hi_ - lo_) / static_cast<double>(counts_.size());
  }
  double lo() const { return lo_; }
  double hi() const { return hi_; }

  /// `q` in [0, 100]. Returns 0 for an empty histogram. Ranks landing
  /// in the underflow (resp. overflow) mass report the true observed
  /// min (resp. max) rather than a value clamped to [lo, hi].
  double percentile(double q) const;

  void reset();

 private:
  double lo_;
  double hi_;
  std::vector<Cell<std::uint64_t>> counts_;
  Cell<std::uint64_t> count_{0};
  Cell<std::uint64_t> invalid_{0};
  Cell<std::uint64_t> underflow_{0};
  Cell<std::uint64_t> overflow_{0};
  Cell<double> sum_{0.0};
  // +inf/-inf sentinels while empty; accessors report 0 for count()==0.
  Cell<double> min_{std::numeric_limits<double>::infinity()};
  Cell<double> max_{-std::numeric_limits<double>::infinity()};
};

using Histogram = BasicHistogram<detail::AtomicCell>;
using LocalHistogram = BasicHistogram<detail::PlainCell>;
extern template class BasicHistogram<detail::AtomicCell>;
extern template class BasicHistogram<detail::PlainCell>;

/// Point-in-time reading of one metric, as produced by
/// MetricsRegistry::snapshot() and consumed by the exporters.
struct MetricSample {
  MetricMeta meta;
  /// Counter/gauge value; histogram mean.
  double value{0.0};
  // Histogram-only fields (zero otherwise).
  std::uint64_t count{0};
  std::uint64_t invalid{0};
  std::uint64_t underflow{0};
  std::uint64_t overflow{0};
  double sum{0.0};
  double p50{0.0};
  double p95{0.0};
  double p99{0.0};
  double p999{0.0};
  double min{0.0};
  double max{0.0};
};

/// Name -> metric table. get-or-create semantics: the first call for a
/// name registers it, later calls return the same object (a type
/// mismatch is a programming error and throws std::logic_error).
/// Returned references stay valid for the registry's lifetime —
/// instrumentation sites cache them so steady-state cost is one relaxed
/// atomic op.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name, const std::string& unit = "",
                   const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& unit = "",
               const std::string& help = "");
  Histogram& histogram(const std::string& name, double lo, double hi,
                       std::size_t buckets, const std::string& unit = "",
                       const std::string& help = "");

  /// Lookup without registering; nullptr if absent or a different type.
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  bool contains(const std::string& name) const;
  std::size_t size() const;

  /// All metrics, sorted by name.
  std::vector<MetricSample> snapshot() const;

  /// The process-wide registry the stack instruments into.
  static MetricsRegistry& global();

 private:
  struct Slot {
    MetricMeta meta;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  /// Shared lookup used by find_counter / find_gauge / find_histogram
  /// and contains(); nullptr if the name was never registered.
  const Slot* find_slot(const std::string& name) const US_REQUIRES(mutex_);

  mutable std::mutex mutex_;
  std::map<std::string, Slot> slots_ US_GUARDED_BY(mutex_);
};

// -- convenience over the global registry -----------------------------

inline Counter& counter(const std::string& name, const std::string& unit = "",
                        const std::string& help = "") {
  return MetricsRegistry::global().counter(name, unit, help);
}

inline Gauge& gauge(const std::string& name, const std::string& unit = "",
                    const std::string& help = "") {
  return MetricsRegistry::global().gauge(name, unit, help);
}

inline Histogram& histogram(const std::string& name, double lo, double hi,
                            std::size_t buckets,
                            const std::string& unit = "",
                            const std::string& help = "") {
  return MetricsRegistry::global().histogram(name, lo, hi, buckets, unit,
                                             help);
}

}  // namespace uniserver::telemetry
