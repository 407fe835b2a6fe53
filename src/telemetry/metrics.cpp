#include "telemetry/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace uniserver::telemetry {

const char* to_string(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "?";
}

template <template <class> class Cell>
BasicHistogram<Cell>::BasicHistogram(double lo, double hi,
                                     std::size_t buckets)
    : lo_(lo), hi_(hi), counts_(std::max<std::size_t>(1, buckets)) {
  if (!(hi > lo)) throw std::logic_error("Histogram: hi must exceed lo");
}

template <template <class> class Cell>
double BasicHistogram<Cell>::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

template <template <class> class Cell>
double BasicHistogram<Cell>::bucket_low(std::size_t i) const {
  return lo_ + bucket_width() * static_cast<double>(i);
}

template <template <class> class Cell>
double BasicHistogram<Cell>::bucket_high(std::size_t i) const {
  return lo_ + bucket_width() * static_cast<double>(i + 1);
}

template <template <class> class Cell>
double BasicHistogram<Cell>::percentile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 100.0);
  // Rank of the sample the percentile falls on (1-based, ceil).
  const auto target = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q / 100.0 * static_cast<double>(n))));
  // Clamped mass must not masquerade as edge-bucket mass: a rank that
  // falls into the underflow (overflow) gets the true observed extreme,
  // otherwise e.g. p999 of a latency histogram saturates at hi.
  const std::uint64_t under = underflow();
  const std::uint64_t over = overflow();
  if (target <= under) return observed_min();
  if (target > n - over) return observed_max();
  std::uint64_t cumulative = under;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    // Edge buckets hold the clamped mass too; subtract it so the
    // in-range interpolation only spans genuinely in-range samples.
    std::uint64_t in_bucket = bucket_count(i);
    if (i == 0) in_bucket -= std::min(in_bucket, under);
    if (i + 1 == counts_.size()) in_bucket -= std::min(in_bucket, over);
    if (cumulative + in_bucket >= target) {
      // Linear interpolation inside the bucket: exact to one width.
      const double fraction =
          in_bucket == 0 ? 0.0
                         : static_cast<double>(target - cumulative) /
                               static_cast<double>(in_bucket);
      return bucket_low(i) + fraction * bucket_width();
    }
    cumulative += in_bucket;
  }
  return observed_max();
}

template <template <class> class Cell>
void BasicHistogram<Cell>::reset() {
  for (auto& c : counts_) c.store(0);
  count_.store(0);
  invalid_.store(0);
  underflow_.store(0);
  overflow_.store(0);
  sum_.store(0.0);
  min_.store(std::numeric_limits<double>::infinity());
  max_.store(-std::numeric_limits<double>::infinity());
}

template class BasicHistogram<detail::AtomicCell>;
template class BasicHistogram<detail::PlainCell>;

namespace {
[[noreturn]] void type_mismatch(const MetricMeta& meta, MetricType wanted) {
  throw std::logic_error("telemetry: metric '" + meta.name +
                         "' already registered as " + to_string(meta.type) +
                         ", requested as " + to_string(wanted));
}
}  // namespace

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& unit,
                                  const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = slots_.find(name);
  if (it == slots_.end()) {
    Slot slot;
    slot.meta = MetricMeta{name, MetricType::kCounter, unit, help};
    slot.counter = std::make_unique<Counter>();
    it = slots_.emplace(name, std::move(slot)).first;
  } else if (it->second.meta.type != MetricType::kCounter) {
    type_mismatch(it->second.meta, MetricType::kCounter);
  }
  return *it->second.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& unit,
                              const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = slots_.find(name);
  if (it == slots_.end()) {
    Slot slot;
    slot.meta = MetricMeta{name, MetricType::kGauge, unit, help};
    slot.gauge = std::make_unique<Gauge>();
    it = slots_.emplace(name, std::move(slot)).first;
  } else if (it->second.meta.type != MetricType::kGauge) {
    type_mismatch(it->second.meta, MetricType::kGauge);
  }
  return *it->second.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name, double lo,
                                      double hi, std::size_t buckets,
                                      const std::string& unit,
                                      const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = slots_.find(name);
  if (it == slots_.end()) {
    Slot slot;
    slot.meta = MetricMeta{name, MetricType::kHistogram, unit, help};
    slot.histogram = std::make_unique<Histogram>(lo, hi, buckets);
    it = slots_.emplace(name, std::move(slot)).first;
  } else if (it->second.meta.type != MetricType::kHistogram) {
    type_mismatch(it->second.meta, MetricType::kHistogram);
  }
  return *it->second.histogram;
}

const MetricsRegistry::Slot* MetricsRegistry::find_slot(
    const std::string& name) const {
  auto it = slots_.find(name);
  return it != slots_.end() ? &it->second : nullptr;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Slot* slot = find_slot(name);
  return slot ? slot->counter.get() : nullptr;
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Slot* slot = find_slot(name);
  return slot ? slot->gauge.get() : nullptr;
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Slot* slot = find_slot(name);
  return slot ? slot->histogram.get() : nullptr;
}

bool MetricsRegistry::contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return find_slot(name) != nullptr;
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slots_.size();
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricSample> samples;
  samples.reserve(slots_.size());
  for (const auto& [name, slot] : slots_) {
    MetricSample sample;
    sample.meta = slot.meta;
    switch (slot.meta.type) {
      case MetricType::kCounter:
        sample.value = static_cast<double>(slot.counter->value());
        break;
      case MetricType::kGauge:
        sample.value = slot.gauge->value();
        break;
      case MetricType::kHistogram:
        sample.value = slot.histogram->mean();
        sample.count = slot.histogram->count();
        sample.invalid = slot.histogram->invalid();
        sample.underflow = slot.histogram->underflow();
        sample.overflow = slot.histogram->overflow();
        sample.sum = slot.histogram->sum();
        sample.p50 = slot.histogram->percentile(50.0);
        sample.p95 = slot.histogram->percentile(95.0);
        sample.p99 = slot.histogram->percentile(99.0);
        sample.p999 = slot.histogram->percentile(99.9);
        sample.min = slot.histogram->observed_min();
        sample.max = slot.histogram->observed_max();
        break;
    }
    samples.push_back(std::move(sample));
  }
  return samples;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace uniserver::telemetry
