// Small statistics toolkit: streaming accumulators, percentiles and
// fixed-bin histograms used by the characterization and bench harnesses.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

namespace uniserver {

/// Streaming accumulator (Welford) for mean/variance/min/max.
/// Non-finite samples (NaN/±inf) are dropped and tallied in invalid()
/// so one bad division can't poison every derived statistic.
class Accumulator {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  /// Non-finite samples rejected by add().
  std::size_t invalid() const { return invalid_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t n_{0};
  std::size_t invalid_{0};
  double mean_{0.0};
  double m2_{0.0};
  double sum_{0.0};
  double min_{std::numeric_limits<double>::infinity()};
  double max_{-std::numeric_limits<double>::infinity()};
};

/// Percentile of a sample by linear interpolation. `q` in [0, 100].
/// Non-finite samples are dropped first (NaN breaks the sort's strict
/// weak ordering). Copies and sorts; fine for harness-sized data.
double percentile(std::vector<double> samples, double q);

/// Median convenience wrapper.
double median(std::vector<double> samples);

/// Fixed-width-bin histogram over [lo, hi); out-of-range samples clamp to
/// the edge bins so mass is never lost.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  std::size_t bin_count(std::size_t i) const { return counts_.at(i); }
  std::size_t bins() const { return counts_.size(); }
  std::size_t total() const { return total_; }
  double bin_low(std::size_t i) const;
  double bin_high(std::size_t i) const;
  /// Multi-line ASCII rendering with proportional bars.
  std::string ascii(std::size_t bar_width = 40) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_{0};
};

}  // namespace uniserver
