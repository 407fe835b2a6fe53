#include "hwmodel/raidr.h"

#include <algorithm>
#include <cmath>

namespace uniserver::hw {

double RaidrBinning::weak_row_fraction(Seconds long_interval,
                                       Celsius temp) const {
  // P(row weak) = 1 - P(every cell retains past guard * interval).
  const double p_cell = dimm_.bit_error_probability(
      Seconds{long_interval.value * kProfilingGuard}, temp);
  if (p_cell <= 0.0) return 0.0;
  const double cells = static_cast<double>(kCellsPerRow);
  // log1p keeps precision for the tiny per-cell probabilities.
  const double p_row_strong = std::exp(cells * std::log1p(-p_cell));
  return std::clamp(1.0 - p_row_strong, 0.0, 1.0);
}

RaidrResult RaidrBinning::evaluate(Seconds long_interval,
                                   Celsius temp) const {
  RaidrResult result;
  result.long_interval = long_interval;
  result.weak_row_fraction = weak_row_fraction(long_interval, temp);

  // Residual errors: rows in the long bin whose weakest cell decays
  // within the *unguarded* interval — only possible in the band between
  // interval and guard * interval that profiling mis-bins; with the
  // guard, by construction, every cell weaker than guard*interval sits
  // in the fast bin, so residual errors are the fast bin's own (same
  // as nominal: effectively zero).
  result.expected_errors = dimm_.expected_errors(kFastInterval, temp);

  // Refresh energy per unit time scales with refresh frequency: the
  // fast rows refresh every kFastInterval, the rest every long_interval.
  const double fast_share = result.weak_row_fraction;
  const double nominal_rate = 1.0 / dimm_.spec().nominal_refresh.value;
  const double rate = fast_share / kFastInterval.value +
                      (1.0 - fast_share) / long_interval.value;
  result.refresh_power_ratio = rate / nominal_rate;

  const double refresh_fraction = dimm_.refresh_power_fraction_nominal();
  result.dimm_power_saving =
      refresh_fraction * (1.0 - std::min(1.0, result.refresh_power_ratio));
  return result;
}

std::vector<RaidrResult> RaidrBinning::sweep(
    const std::vector<Seconds>& intervals, Celsius temp) const {
  std::vector<RaidrResult> results;
  results.reserve(intervals.size());
  for (const Seconds interval : intervals) {
    results.push_back(evaluate(interval, temp));
  }
  return results;
}

}  // namespace uniserver::hw
