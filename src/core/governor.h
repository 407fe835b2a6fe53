// Runtime EOP governor.
//
// The Predictor daemon "advise[s] the system regarding the best V-F-R
// mode depending on the current workload and runtime characteristics"
// (paper §3.E), and §3.B notes that "real-life workloads will probably
// allow even more efficient margins" than the virus-derived floor. The
// governor turns both ideas into a control policy:
//
//   - mode selection with hysteresis: sustained high utilization runs
//     high-performance (nominal frequency, undervolted); sustained low
//     utilization drops to the low-power frequency point;
//   - optional workload-aware margins: candidate EOPs deeper than the
//     virus-derived safe floor are offered to the Predictor, which
//     prices them against the *current* workload signature. Calm
//     workloads then harvest extra margin — at the documented risk that
//     a sudden noisy phase lands before the governor reacts (ablation
//     A7 quantifies exactly that trade).
#pragma once

#include <vector>

#include "common/units.h"
#include "core/margin_table.h"
#include "daemons/predictor.h"
#include "hwmodel/chip.h"
#include "hwmodel/eop.h"
#include "hwmodel/workload_signature.h"

namespace uniserver::core {

struct GovernorConfig {
  /// Consecutive decisions on the other side before the mode flips.
  int hysteresis_ticks{3};
  /// Offer candidates beyond the virus-derived safe floor, priced by
  /// the Predictor against the current workload.
  bool workload_aware{false};
  /// Risk budget handed to the Predictor.
  double risk_budget{0.02};
};

class EopGovernor {
 public:
  /// Utilization at or above which the mode leans high-performance.
  static constexpr double kHighUtilThreshold = 0.70;
  /// Utilization at or below which the mode leans low-power.
  static constexpr double kLowUtilThreshold = 0.30;
  /// How far beyond the safe floor workload-aware mode may explore (%),
  /// in steps of `kExtraStepPercent`.
  static constexpr double kExtraUndervoltPercent = 6.0;
  static constexpr double kExtraStepPercent = 0.5;

  explicit EopGovernor(const GovernorConfig& config) : config_(config) {}

  daemons::ExecutionMode mode() const { return mode_; }

  /// One governor decision: updates the mode from utilization (with
  /// hysteresis) and returns the EOP to apply for the next window.
  hw::Eop decide(const MarginTable& margins, const daemons::Predictor& predictor,
                 const hw::Chip& chip, const hw::WorkloadSignature& current,
                 double utilization, Seconds refresh_nominal);

 private:
  void update_mode(double utilization);

  GovernorConfig config_;
  daemons::ExecutionMode mode_{daemons::ExecutionMode::kHighPerformance};
  int streak_{0};
};

}  // namespace uniserver::core
