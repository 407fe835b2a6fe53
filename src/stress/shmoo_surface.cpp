#include "stress/shmoo_surface.h"

#include <sstream>

#include "common/parallel.h"
#include "hwmodel/eop.h"

namespace uniserver::stress {

char to_char(ShmooCell cell) {
  switch (cell) {
    case ShmooCell::kPass:
      return '.';
    case ShmooCell::kMarginal:
      return 'o';
    case ShmooCell::kFail:
      return 'X';
  }
  return '?';
}

double ShmooSurface::frontier_offset(std::size_t freq_index) const {
  double deepest = -1.0;
  for (std::size_t row = 0; row < offsets_percent.size(); ++row) {
    if (at(row, freq_index) == ShmooCell::kFail) break;
    deepest = offsets_percent[row];
  }
  return deepest;
}

std::string ShmooSurface::ascii() const {
  std::ostringstream os;
  os << "offset\\freq ";
  for (double fr : freq_ratios) {
    os.setf(std::ios::fixed);
    os.precision(2);
    os << fr << " ";
  }
  os << "\n";
  for (std::size_t row = 0; row < offsets_percent.size(); ++row) {
    os.setf(std::ios::fixed);
    os.precision(1);
    os << "  -" << offsets_percent[row] << "%"
       << std::string(offsets_percent[row] < 10.0 ? 6 : 5, ' ');
    for (std::size_t col = 0; col < freq_ratios.size(); ++col) {
      os << to_char(at(row, col)) << "    ";
    }
    os << "\n";
  }
  return os.str();
}

ShmooSurface characterize_surface(const hw::Chip& chip,
                                  const hw::WorkloadSignature& w,
                                  const SurfaceConfig& config, Rng& rng) {
  ShmooSurface surface;
  surface.freq_ratios = config.freq_ratios;
  for (double offset = config.offset_start; offset <= config.offset_stop;
       offset += config.offset_step) {
    surface.offsets_percent.push_back(offset);
  }
  const std::size_t rows = surface.offsets_percent.size();
  const std::size_t cols = surface.freq_ratios.size();
  surface.cells.assign(rows * cols, ShmooCell::kPass);

  // One private stream per cell (row-major), forked serially up front;
  // rows then classify in parallel with bit-identical results for any
  // worker count. Every cell forks — even FAIL cells that never draw —
  // so the stream assignment is a pure function of the grid shape.
  std::vector<Rng> streams = par::fork_streams(rng, rows * cols);

  const Volt vnom = chip.spec().vdd_nominal;
  par::parallel_for_each(rows, [&](std::size_t row) {
    const double offset = surface.offsets_percent[row];
    const Volt v = hw::apply_undervolt_percent(vnom, offset);
    for (std::size_t col = 0; col < cols; ++col) {
      const MegaHertz f = chip.spec().freq_nominal * surface.freq_ratios[col];
      // Part-stable crash check (a surface is a map, not a trial):
      // FAIL if any core's crash voltage is at or above the cell's V.
      const Volt crash = chip.system_crash_voltage(w, f);
      ShmooCell cell = ShmooCell::kFail;
      if (v > crash) {
        // MARGINAL when the cache ECC canary fires during the dwell.
        const std::uint64_t errors = chip.cache().sample_errors(
            v, crash, w, kSurfaceDwell, streams[row * cols + col]);
        cell = errors > 0 ? ShmooCell::kMarginal : ShmooCell::kPass;
      }
      surface.cells[row * cols + col] = cell;
    }
  });
  return surface;
}

}  // namespace uniserver::stress
