// Edge-computing latency/energy model (paper §6.D).
//
// An interactive IoT service has an end-to-end latency target (the
// paper's example: 200 ms). Reaching a cloud data-center burns roughly
// half that budget on the network round trip; an edge deployment
// eliminates most of it, so the freed slack can be spent running the
// service slower — at lower frequency AND lower voltage — for
// quadratic power savings: "operating at 50% of the peak frequency with
// 30% less voltage translates to running with 50% less energy and 75%
// less power".
#pragma once

#include "common/units.h"

namespace uniserver::edge {

struct LatencyModel {
  /// End-to-end latency target of the interactive service.
  static constexpr Seconds kTargetLatency = Seconds::from_ms(200.0);
  /// Round trip to a cloud data-center: half the budget.
  static constexpr Seconds kCloudRtt = Seconds::from_ms(100.0);

  Seconds edge_rtt{Seconds::from_ms(5.0)};

  /// Compute budget left after the network round trip.
  Seconds compute_budget_cloud() const {
    return Seconds{kTargetLatency.value - kCloudRtt.value};
  }
  Seconds compute_budget_edge() const {
    return Seconds{kTargetLatency.value - edge_rtt.value};
  }

  /// How much slower the edge node may run while meeting the target,
  /// assuming the service is compute-bound (min clamp at 0.05).
  double allowed_freq_ratio() const;
};

/// Voltage ratio of the V-f curve extrapolated at f -> 0 (retention
/// floor).
inline constexpr double kVFloorRatio = 0.4;

/// Affine V-f operating curve: the minimum stable voltage ratio for a
/// frequency ratio. Calibrated so 50% frequency runs at 70% voltage
/// (the paper's example point).
inline double voltage_ratio_for(double freq_ratio) {
  return kVFloorRatio + (1.0 - kVFloorRatio) * freq_ratio;
}

/// Savings of a DVFS point vs nominal (f=1, v=1).
struct DvfsSavings {
  double freq_ratio{1.0};
  double voltage_ratio{1.0};
  /// Dynamic power ratio: v^2 * f.
  double power_ratio() const {
    return voltage_ratio * voltage_ratio * freq_ratio;
  }
  double power_saving() const { return 1.0 - power_ratio(); }
  /// Energy ratio for fixed work (runtime scales with 1/f): v^2.
  double energy_ratio() const { return voltage_ratio * voltage_ratio; }
  double energy_saving() const { return 1.0 - energy_ratio(); }
};

/// The DVFS point an edge deployment can run at given the latency slack.
DvfsSavings edge_savings(const LatencyModel& latency);

/// A specific DVFS point's savings (used for the paper's 50%/30% quote).
DvfsSavings savings_at(double freq_ratio, double voltage_ratio);

}  // namespace uniserver::edge
