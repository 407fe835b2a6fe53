// Fleet-scale workload generator: datacenter-sized diurnal VM request
// streams (default 10k nodes, 1M VMs over one simulated day).
//
// The per-experiment generator (arrivals.h) materializes a full request
// vector, which is fine for hundreds of VMs but not for the millions the
// indexed placement engine is built to absorb. This generator streams:
// the arrival process is a Poisson process thinned to diurnal.h's day
// shape, requests are pulled one (or one batch) at a time, the rate is
// derived from the requested VM count, and the mean lifetime is derived
// from the fleet's capacity so the cluster settles at a target
// steady-state utilization instead of overflowing or idling.
// Deterministic for a given seed.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/units.h"
#include "trace/arrivals.h"
#include "trace/diurnal.h"

namespace uniserver::trace {

struct FleetTraceConfig {
  /// Fleet the stream is sized against.
  int nodes{10000};
  int vcpus_per_node{8};
  /// Total requests the stream emits (exactly).
  std::uint64_t vms{1'000'000};
  /// Simulated span the requests (on average) arrive over.
  double days{1.0};
  /// Diurnal shape (see diurnal.h).
  double peak_factor{1.8};
  double trough_factor{0.2};
  double peak_hour{14.0};
  /// Steady-state committed-vCPU fraction the lifetimes aim for.
  double target_utilization{0.70};
  /// SLA mix (passed through to ArrivalConfig).
  double best_effort_share{0.3};
  double critical_share{0.2};
};

class FleetTraceGenerator {
 public:
  FleetTraceGenerator(const FleetTraceConfig& config, std::uint64_t seed);

  /// Next request, arrival-ordered with dense ids 1..vms;
  /// std::nullopt once `vms` requests have been emitted.
  std::optional<VmRequest> next();

  /// Up to `max` further requests (shorter only at end of stream).
  std::vector<VmRequest> take(std::size_t max);

  /// All remaining requests. At the default 1M-VM scale this
  /// materializes a multi-hundred-MB vector — prefer take().
  std::vector<VmRequest> generate();

  std::uint64_t emitted() const { return emitted_; }
  /// Nominal span of the stream (days * 86400 s).
  Seconds horizon() const;
  /// The derived per-experiment arrival parameters (rate at the diurnal
  /// mean, capacity-matched lifetime) — exposed for tests.
  const ArrivalConfig& derived_base() const { return diurnal_.base; }

 private:
  FleetTraceConfig config_;
  DiurnalConfig diurnal_;
  VmArrivalStream stream_;  ///< runs at the peak rate; thinned below
  Rng thinning_;
  Seconds cursor_{Seconds{0.0}};
  std::uint64_t emitted_{0};
};

}  // namespace uniserver::trace
