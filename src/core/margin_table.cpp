#include "core/margin_table.h"

#include <algorithm>

namespace uniserver::core {

void MarginTable::update(const daemons::SafeMargins& margins) {
  margins_ = margins;
  valid_ = !margins.points.empty();
}

std::vector<hw::Eop> MarginTable::eop_candidates(
    Volt vdd_nominal, MegaHertz freq_nominal, Seconds refresh_nominal) const {
  std::vector<hw::Eop> candidates;
  candidates.push_back(hw::Eop{vdd_nominal, freq_nominal, refresh_nominal});
  if (!valid_) return candidates;

  for (const auto& point : margins_.points) {
    for (double backoff : kBackoffLevels) {
      const double offset =
          std::max(0.0, point.safe_offset_percent - backoff);
      hw::Eop eop;
      eop.vdd = hw::apply_undervolt_percent(vdd_nominal, offset);
      eop.freq = point.freq;
      eop.refresh = margins_.safe_refresh;
      candidates.push_back(eop);
    }
  }
  return candidates;
}

}  // namespace uniserver::core
