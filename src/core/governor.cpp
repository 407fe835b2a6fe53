#include "core/governor.h"

#include <algorithm>

namespace uniserver::core {

void EopGovernor::update_mode(double utilization) {
  using daemons::ExecutionMode;
  const ExecutionMode wanted =
      utilization >= kHighUtilThreshold ? ExecutionMode::kHighPerformance
      : utilization <= kLowUtilThreshold ? ExecutionMode::kLowPower
                                         : mode_;
  if (wanted == mode_) {
    streak_ = 0;
    return;
  }
  if (++streak_ >= config_.hysteresis_ticks) {
    mode_ = wanted;
    streak_ = 0;
  }
}

hw::Eop EopGovernor::decide(const MarginTable& margins,
                            const daemons::Predictor& predictor,
                            const hw::Chip& chip,
                            const hw::WorkloadSignature& current,
                            double utilization, Seconds refresh_nominal) {
  update_mode(utilization);

  const Volt vnom = chip.spec().vdd_nominal;
  const MegaHertz fnom = chip.spec().freq_nominal;
  auto candidates = margins.eop_candidates(vnom, fnom, refresh_nominal);

  // Mode gate: high-performance keeps nominal frequency; low-power
  // allows everything down to the deepest characterized point.
  if (mode_ == daemons::ExecutionMode::kHighPerformance) {
    std::erase_if(candidates, [&](const hw::Eop& eop) {
      return eop.freq / fnom < 0.999;
    });
  }

  if (config_.workload_aware && margins.valid()) {
    // Extend beyond the virus floor: the Predictor prices these against
    // the *current* signature, so a calm phase unlocks them.
    std::vector<hw::Eop> extended;
    for (const hw::Eop& base : candidates) {
      const double base_offset = hw::undervolt_percent(vnom, base.vdd);
      for (double extra = kExtraStepPercent; extra <= kExtraUndervoltPercent;
           extra += kExtraStepPercent) {
        hw::Eop eop = base;
        eop.vdd = hw::apply_undervolt_percent(vnom, base_offset + extra);
        extended.push_back(eop);
      }
    }
    candidates.insert(candidates.end(), extended.begin(), extended.end());
  }

  const auto advice =
      predictor.advise(chip, current, candidates, config_.risk_budget);
  return advice.eop;
}

}  // namespace uniserver::core
