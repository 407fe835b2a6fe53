#include "trace/diurnal.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace uniserver::trace {

double diurnal_factor(const DiurnalConfig& config, Seconds t) {
  const double hours = std::fmod(t.value / 3600.0, 24.0);
  // Cosine peaking at peak_hour: 1 at the peak, -1 twelve hours away.
  const double phase =
      std::cos((hours - config.peak_hour) / 24.0 * 2.0 * std::numbers::pi);
  const double mid = (config.peak_factor + config.trough_factor) / 2.0;
  const double amplitude =
      (config.peak_factor - config.trough_factor) / 2.0;
  return mid + amplitude * phase;
}

FactorBand diurnal_band(const DiurnalConfig& config, Seconds t0,
                        Seconds window) {
  // Rounding margin. diurnal_factor's error is led by t / 3600: half an
  // ulp of the hour count is a time error of |t| * 2^-53 s, worth
  // slope * |t| * 2^-53 in the factor (about 2e-13 at one simulated
  // year). The phase arithmetic, the cosine and the mid/amplitude sum
  // add a few ulps of numbers below 2pi, about 1e-15. The band's centre
  // factor(t0) and the in-window factor(t) each carry that error, so the
  // margin must cover twice it: 1e-9 does for |t| below about 2,000
  // simulated years at the default shape.
  constexpr double kMargin = 1e-9;
  const double slope = std::abs(config.peak_factor - config.trough_factor) /
                       2.0 * 2.0 * std::numbers::pi / 86400.0;
  const double reach = slope * std::max(0.0, window.value) + kMargin;
  const double centre = diurnal_factor(config, t0);
  return {centre - reach, centre + reach};
}

}  // namespace uniserver::trace
