#include "daemons/healthlog.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>

#include "telemetry/telemetry.h"

namespace uniserver::daemons {

const char* to_string(Component component) {
  switch (component) {
    case Component::kCore:
      return "core";
    case Component::kCache:
      return "cache";
    case Component::kDram:
      return "dram";
  }
  return "?";
}

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kCorrectable:
      return "correctable";
    case Severity::kUncorrectable:
      return "uncorrectable";
    case Severity::kCrash:
      return "crash";
  }
  return "?";
}

void HealthLog::record(const InfoVector& vector) {
  if (vectors_.size() < kVectorCapacity) {
    vectors_.push_back(vector);
  } else {
    vectors_[oldest_vector_] = vector;
    oldest_vector_ = (oldest_vector_ + 1) % kVectorCapacity;
  }
}

void HealthLog::clear() {
  vectors_.clear();
  oldest_vector_ = 0;
  errors_.clear();
  correctable_through_.clear();
  suffix_minima_.clear();
  last_trigger_ = Seconds{-1e18};
}

void HealthLog::record_error(const ErrorEvent& event) {
  if (event.severity == Severity::kCorrectable) {
    ++total_correctable_;
  } else {
    ++total_uncorrectable_;
  }
  errors_.push_back(event);
  correctable_through_.push_back(total_correctable_);
  const std::uint64_t sequence = next_sequence_++;
  // A NaN stamp never compares below a cutoff, so it can never end the
  // window and never enters the index.
  if (!std::isnan(event.timestamp.value)) {
    while (!suffix_minima_.empty() &&
           suffix_minima_.back().second >= event.timestamp.value) {
      suffix_minima_.pop_back();
    }
    suffix_minima_.emplace_back(sequence, event.timestamp.value);
  }
  while (errors_.size() > kErrorCapacity) {
    const std::uint64_t evicted = sequence + 1 - errors_.size();
    if (!suffix_minima_.empty() && suffix_minima_.front().first == evicted) {
      suffix_minima_.pop_front();
    }
    errors_.pop_front();
    correctable_through_.pop_front();
  }
  for (const auto& listener : error_listeners_) listener(event);

  if (threshold_exceeded(event.timestamp)) {
    if (event.timestamp.value - last_trigger_.value >=
        kRecharacterizeCooldown.value) {
      last_trigger_ = event.timestamp;
      ++triggers_;
      char rate[32];
      std::snprintf(rate, sizeof rate, "%.5f",
                    error_rate_per_s(event.timestamp));
      telemetry::trace(event.timestamp, "healthlog", "recharacterize",
                       {{"rate_per_s", rate},
                        {"component", to_string(event.component)}});
      for (const auto& listener : recharacterize_listeners_) {
        listener(event.timestamp);
      }
    }
  }
}

void HealthLog::subscribe_errors(ErrorListener listener) {
  error_listeners_.push_back(std::move(listener));
}

void HealthLog::subscribe_recharacterize(RecharacterizeListener listener) {
  recharacterize_listeners_.push_back(std::move(listener));
}

InfoVector HealthLog::latest() const {
  if (vectors_.empty()) return InfoVector{};
  return vector_at(vectors_.size() - 1);
}

std::vector<InfoVector> HealthLog::vectors() const {
  std::vector<InfoVector> ordered(vectors_);
  std::rotate(ordered.begin(),
              ordered.begin() + static_cast<std::ptrdiff_t>(oldest_vector_),
              ordered.end());
  return ordered;
}

HealthLog::Aggregate HealthLog::aggregate(Seconds since) const {
  Aggregate aggregate;
  double power = 0.0;
  double temp = 0.0;
  double ipc = 0.0;
  for (std::size_t i = 0; i < vectors_.size(); ++i) {
    const InfoVector& vector = vector_at(i);
    if (vector.timestamp < since) continue;
    ++aggregate.vectors;
    aggregate.correctable_errors += vector.correctable_errors;
    aggregate.uncorrectable_errors += vector.uncorrectable_errors;
    power += vector.sensors.package_power.value +
             vector.sensors.memory_power.value;
    temp += vector.sensors.temperature.value;
    ipc += vector.ipc;
  }
  if (aggregate.vectors > 0) {
    const auto n = static_cast<double>(aggregate.vectors);
    aggregate.mean_power_w = power / n;
    aggregate.mean_temp_c = temp / n;
    aggregate.mean_ipc = ipc / n;
  }
  for (const auto& event : errors_) {
    if (event.timestamp < since) continue;
    if (event.severity == Severity::kCrash) ++aggregate.crash_events;
  }
  return aggregate;
}

double HealthLog::error_rate_per_s(Seconds now) const {
  if (errors_.empty()) return 0.0;
  const double cutoff = now.value - kRateWindow.value;
  // The window opens after the newest event stamped before the cutoff.
  // Nothing after that event is earlier, so it is a suffix minimum: the
  // last index entry below the cutoff.
  const auto end = std::partition_point(
      suffix_minima_.begin(), suffix_minima_.end(),
      [cutoff](const auto& entry) { return entry.second < cutoff; });
  std::uint64_t before = 0;
  if (end != suffix_minima_.begin()) {
    const std::uint64_t first = next_sequence_ - errors_.size();
    before = correctable_through_[std::prev(end)->first - first];
  } else {
    before = correctable_through_.front() -
             (errors_.front().severity == Severity::kCorrectable ? 1 : 0);
  }
  const std::uint64_t count = correctable_through_.back() - before;
  return static_cast<double>(count) / kRateWindow.value;
}

bool HealthLog::threshold_exceeded(Seconds now) const {
  return error_rate_per_s(now) > kErrorRateThresholdPerS;
}

}  // namespace uniserver::daemons
