// Shmoo characterization: the undervolting protocol of paper §6.A.
//
// For each (core, workload) pair the voltage is stepped down from
// nominal in fixed increments; each step runs the workload for a fixed
// duration while cache ECC events are recorded, until the core crashes.
// Repeated runs give the min/max crash offsets of Table 2; the chip-level
// summary (first-core crash, core-to-core spread) feeds the StressLog.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "hwmodel/chip.h"
#include "hwmodel/workload_signature.h"

namespace uniserver::stress {

struct ShmooConfig {
  /// Consecutive runs per (core, workload) pair (paper uses 3).
  int runs{3};
};

/// Outcome of one run of the protocol on one core.
struct ShmooRun {
  double crash_offset_percent{0.0};   ///< undervolt % where the run died
  std::uint64_t ecc_errors{0};        ///< correctable cache events seen
  double ecc_onset_offset_percent{-1.0};  ///< first offset with errors (<0: none)
};

/// Aggregate over the configured runs for one (core, workload) pair.
struct CoreWorkloadResult {
  int core{0};
  std::string workload;
  double crash_offset_min{0.0};
  double crash_offset_max{0.0};
  double crash_offset_mean{0.0};
  std::uint64_t ecc_errors_min{0};
  std::uint64_t ecc_errors_max{0};
  std::vector<ShmooRun> runs;
};

/// Chip-level summary for one workload.
struct WorkloadSummary {
  std::string workload;
  /// System crash offset: the first core to die (min offset over cores).
  double system_crash_offset{0.0};
  /// Spread between the weakest and strongest core (Table 2 row 2).
  double core_to_core_variation{0.0};
  std::vector<CoreWorkloadResult> per_core;
};

class ShmooCharacterizer {
 public:
  /// Undervolt step as a percent of nominal voltage.
  static constexpr double kStepPercent = 0.2;
  /// Give up below this offset (a part this good does not exist).
  static constexpr double kMaxOffsetPercent = 30.0;
  /// Workload run time per voltage step.
  static constexpr Seconds kStepDuration{10.0};

  explicit ShmooCharacterizer(ShmooConfig config = {}) : config_(config) {}

  const ShmooConfig& config() const { return config_; }

  /// Runs the stepping protocol for one core under one workload.
  CoreWorkloadResult characterize_core(const hw::Chip& chip, int core,
                                       const hw::WorkloadSignature& w,
                                       MegaHertz freq, Rng& rng) const;

  /// Characterizes every core of the chip under one workload.
  WorkloadSummary characterize_chip(const hw::Chip& chip,
                                    const hw::WorkloadSignature& w,
                                    MegaHertz freq, Rng& rng) const;

  /// Full campaign over a workload suite.
  std::vector<WorkloadSummary> campaign(
      const hw::Chip& chip, const std::vector<hw::WorkloadSignature>& suite,
      MegaHertz freq, Rng& rng) const;

 private:
  ShmooConfig config_;
};

/// The safe undervolt margin derived from a campaign: the smallest
/// system crash offset across the suite minus a guard band.
double safe_undervolt_percent(const std::vector<WorkloadSummary>& campaign,
                              double guard_percent);

}  // namespace uniserver::stress
