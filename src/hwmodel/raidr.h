// Retention-aware refresh binning, after RAIDR (Liu et al. [26], cited
// by the paper for its refresh-power numbers).
//
// Uniformly relaxing the refresh interval trades errors for power; the
// RAIDR observation is that only a tiny weak tail of rows needs
// frequent refresh. Binning rows by profiled retention — most rows at a
// long interval, the weak tail at the nominal one — keeps the error
// rate at (or below) the nominal level while harvesting nearly the full
// refresh-power saving of the long interval.
//
// The model: rows inherit the retention of their weakest cell
// (cells-per-row i.i.d. from the DIMM's retention distribution), giving
// the fraction of rows that must stay in the fast bin for a target
// long interval; power follows from the per-bin refresh frequencies.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "hwmodel/dram_model.h"

namespace uniserver::hw {

/// One evaluated binning configuration.
struct RaidrResult {
  Seconds long_interval{Seconds{0.0}};
  /// Fraction of rows that must stay in the fast bin.
  double weak_row_fraction{0.0};
  /// Expected decayed bits per pass across the DIMM (residual errors —
  /// zero up to profiling accuracy, by construction).
  double expected_errors{0.0};
  /// Refresh power relative to all-nominal refresh (1.0 = no saving).
  double refresh_power_ratio{1.0};
  /// Fraction of the DIMM's total power saved vs nominal refresh.
  double dimm_power_saving{0.0};
};

class RaidrBinning {
 public:
  /// Cells per DRAM row (8 KB row -> 65536 cells).
  static constexpr std::uint64_t kCellsPerRow = 65536;
  /// The fast bin's interval (weak rows): the nominal 64 ms.
  static constexpr Seconds kFastInterval = Seconds::from_ms(64.0);
  /// Profiling guard: rows within this factor of the long interval's
  /// retention requirement are conservatively placed in the fast bin.
  static constexpr double kProfilingGuard = 2.0;

  explicit RaidrBinning(const DimmModel& dimm) : dimm_(dimm) {}

  /// Fraction of rows whose weakest cell retains for less than
  /// `interval * kProfilingGuard` at `temp` (must stay in the fast bin).
  double weak_row_fraction(Seconds long_interval, Celsius temp) const;

  /// Evaluates a two-bin configuration at the given long interval.
  RaidrResult evaluate(Seconds long_interval, Celsius temp) const;

  /// Sweep helper: evaluates several long intervals.
  std::vector<RaidrResult> sweep(const std::vector<Seconds>& intervals,
                                 Celsius temp) const;

 private:
  const DimmModel& dimm_;
};

}  // namespace uniserver::hw
