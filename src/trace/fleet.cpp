#include "trace/fleet.h"

#include <algorithm>

namespace uniserver::trace {

namespace {

// Mean vCPUs per request under the arrivals.cpp flavor mix
// (50% x 1, 30% x 2, 20% x 4).
constexpr double kMeanVcpusPerVm = 0.5 * 1.0 + 0.3 * 2.0 + 0.2 * 4.0;

DiurnalConfig derive_diurnal(const FleetTraceConfig& config) {
  DiurnalConfig diurnal;
  diurnal.peak_factor = config.peak_factor;
  diurnal.trough_factor = config.trough_factor;
  diurnal.peak_hour = config.peak_hour;

  const double hours = std::max(1e-9, config.days * 24.0);
  // The diurnal factor averages to (peak + trough) / 2 over whole days,
  // so this base rate makes the *thinned* stream's expected count equal
  // the requested VM total.
  const double mean_factor =
      std::max(1e-9, (config.peak_factor + config.trough_factor) / 2.0);
  diurnal.base.arrivals_per_hour =
      static_cast<double>(config.vms) / (hours * mean_factor);
  diurnal.base.best_effort_share = config.best_effort_share;
  diurnal.base.critical_share = config.critical_share;

  // Capacity-matched lifetimes: in steady state (Little's law) the
  // committed vCPUs are arrival_rate * lifetime * mean_vcpus; solve for
  // the lifetime that parks the fleet at the target utilization.
  const double fleet_vcpus = static_cast<double>(config.nodes) *
                             static_cast<double>(config.vcpus_per_node);
  const double mean_rate_per_s =
      static_cast<double>(config.vms) / (hours * 3600.0);
  diurnal.base.mean_lifetime = Seconds{
      std::max(1.0, FleetTraceGenerator::kTargetUtilization * fleet_vcpus /
                        std::max(1e-12, mean_rate_per_s * kMeanVcpusPerVm))};
  return diurnal;
}

ArrivalConfig peak_config(const DiurnalConfig& diurnal) {
  ArrivalConfig peak = diurnal.base;
  peak.arrivals_per_hour =
      diurnal.base.arrivals_per_hour * diurnal.peak_factor;
  return peak;
}

}  // namespace

FleetTraceGenerator::FleetTraceGenerator(const FleetTraceConfig& config,
                                         std::uint64_t seed)
    : config_(config),
      diurnal_(derive_diurnal(config)),
      stream_(peak_config(diurnal_), seed),
      thinning_(Rng(seed).fork(0xF1EE7).next()) {}

Seconds FleetTraceGenerator::horizon() const {
  return Seconds{config_.days * 86400.0};
}

std::optional<VmRequest> FleetTraceGenerator::next() {
  if (emitted_ >= config_.vms) return std::nullopt;
  // Thinning: draw from the peak-rate process, keep with probability
  // factor(t)/peak, re-densify ids. The day shape is periodic, so a
  // stream that needs slightly longer than `days` to reach its VM count
  // just continues into the next day.
  while (true) {
    VmRequest request = stream_.next(cursor_);
    cursor_ = request.arrival;
    const double keep_probability =
        diurnal_factor(diurnal_, request.arrival) / diurnal_.peak_factor;
    if (!thinning_.bernoulli(keep_probability)) continue;
    request.id = ++emitted_;
    return request;
  }
}

std::vector<VmRequest> FleetTraceGenerator::take(std::size_t max) {
  std::vector<VmRequest> batch;
  batch.reserve(std::min<std::uint64_t>(max, config_.vms - emitted_));
  for (std::size_t i = 0; i < max; ++i) {
    std::optional<VmRequest> request = next();
    if (!request.has_value()) break;
    batch.push_back(std::move(*request));
  }
  return batch;
}

}  // namespace uniserver::trace
