#include "common/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

namespace uniserver {

void Accumulator::add(double x) {
  if (!std::isfinite(x)) {
    // One NaN would poison mean/variance forever (and ±inf the sum);
    // drop it but keep it visible, mirroring telemetry::Histogram.
    ++invalid_;
    return;
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double Accumulator::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double percentile(std::vector<double> samples, double q) {
  // NaN breaks strict weak ordering (sorting it is UB) and one NaN
  // would poison the whole quantile; ±inf would defeat interpolation.
  // Drop non-finite samples, consistent with telemetry's invalid tally.
  std::erase_if(samples, [](double x) { return !std::isfinite(x); });
  if (samples.empty()) return 0.0;
  q = std::clamp(q, 0.0, 100.0);
  std::sort(samples.begin(), samples.end());
  const double rank = q / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  assert(hi > lo && bins > 0);
}

void Histogram::add(double x) {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto idx = static_cast<std::ptrdiff_t>(std::floor((x - lo_) / width));
  idx = std::clamp<std::ptrdiff_t>(
      idx, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

double Histogram::bin_low(std::size_t i) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(i);
}

double Histogram::bin_high(std::size_t i) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(i + 1);
}

std::string Histogram::ascii(std::size_t bar_width) const {
  std::size_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  std::ostringstream os;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    os.setf(std::ios::fixed);
    os.precision(4);
    os << "[" << bin_low(i) << ", " << bin_high(i) << ") ";
    const auto len = counts_[i] * bar_width / peak;
    for (std::size_t k = 0; k < len; ++k) os << '#';
    os << " " << counts_[i] << "\n";
  }
  return os.str();
}

}  // namespace uniserver
