// Diurnal load shaping for VM arrival streams.
//
// Edge deployments see strongly diurnal demand (the IoT devices behind
// them are humans); the energy story of running at low-power EOPs
// through the night only shows up under a daily cycle. Modulates a
// base Poisson arrival rate with a day-shaped profile.
#pragma once

#include "common/units.h"
#include "trace/arrivals.h"

namespace uniserver::trace {

struct DiurnalConfig {
  ArrivalConfig base{};
  /// Peak-hour multiplier on the base arrival rate.
  double peak_factor{1.8};
  /// Trough multiplier (the small hours).
  double trough_factor{0.2};
  /// Hour of day (0-24) when demand peaks.
  double peak_hour{14.0};
};

/// Arrival-rate multiplier at time-of-day `t` (cosine day shape between
/// trough_factor and peak_factor, peaking at peak_hour).
double diurnal_factor(const DiurnalConfig& config, Seconds t);

/// Bounds on diurnal_factor over a window: lo <= diurnal_factor(t) <= hi
/// for every t in [t0, t0 + window].
struct FactorBand {
  double lo{0.0};
  double hi{0.0};

  /// `draw <= diurnal_factor(config, t)` for a t in the band's window,
  /// calling diurnal_factor only when the draw lands inside the band.
  bool under_factor(double draw, const DiurnalConfig& config,
                    Seconds t) const {
    if (draw <= lo) return true;
    if (draw > hi) return false;
    return draw <= diurnal_factor(config, t);
  }
};

/// The factor's slope is at most (peak - trough) / 2 * 2pi / 86400 per
/// second, so over the window it stays within factor(t0) +- slope *
/// window; the band adds a fixed margin for diurnal_factor's rounding.
FactorBand diurnal_band(const DiurnalConfig& config, Seconds t0,
                        Seconds window);

}  // namespace uniserver::trace
