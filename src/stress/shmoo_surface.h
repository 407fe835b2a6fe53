// Two-dimensional V-F shmoo surface: the classic characterization plot.
//
// For a grid of (frequency ratio, undervolt offset) cells the chip is
// classified as PASS (all cores run the workload cleanly), MARGINAL
// (runs, but correctable cache ECC events fire — the canary band), or
// FAIL (some core crashes). The rendered plot is what a silicon bring-up
// engineer stares at, and the pass/marginal frontier is precisely the
// EOP surface the margin table encodes per frequency.
#pragma once

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "hwmodel/chip.h"
#include "hwmodel/workload_signature.h"

namespace uniserver::stress {

enum class ShmooCell { kPass, kMarginal, kFail };

char to_char(ShmooCell cell);

struct ShmooSurface {
  /// Row-major grid: rows are undervolt offsets (ascending), columns
  /// are frequency ratios (ascending).
  std::vector<double> offsets_percent;
  std::vector<double> freq_ratios;
  std::vector<ShmooCell> cells;

  ShmooCell at(std::size_t offset_index, std::size_t freq_index) const {
    return cells.at(offset_index * freq_ratios.size() + freq_index);
  }

  /// Deepest passing (non-FAIL) offset for a frequency column; -1 if
  /// even the first row fails.
  double frontier_offset(std::size_t freq_index) const;

  /// ASCII rendering: '.' pass, 'o' marginal (ECC canary), 'X' fail.
  std::string ascii() const;
};

struct SurfaceConfig {
  double offset_start{2.0};
  double offset_step{1.0};
  double offset_stop{30.0};
  std::vector<double> freq_ratios{0.5, 0.6, 0.7, 0.8, 0.9, 1.0};
};

/// Workload run time per surface cell.
inline constexpr Seconds kSurfaceDwell{10.0};

/// Characterizes the full V-F surface of a chip under one workload.
ShmooSurface characterize_surface(const hw::Chip& chip,
                                  const hw::WorkloadSignature& w,
                                  const SurfaceConfig& config, Rng& rng);

}  // namespace uniserver::stress
