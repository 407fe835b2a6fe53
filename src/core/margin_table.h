// Margin table: the per-node record of characterized safe V-F-R
// margins, and the generator of candidate EOPs the Predictor chooses
// among. This is the hand-off artifact between the StressLog (which
// produces margins), the Predictor (which ranks points) and the
// Hypervisor (which applies one).
#pragma once

#include <array>
#include <vector>

#include "common/units.h"
#include "daemons/stresslog.h"
#include "hwmodel/eop.h"

namespace uniserver::core {

class MarginTable {
 public:
  /// Extra undervolt backoff levels (percent added back toward nominal).
  static constexpr std::array<double, 3> kBackoffLevels{0.0, 0.5, 1.0};

  MarginTable() = default;

  bool valid() const { return valid_; }
  void update(const daemons::SafeMargins& margins);
  const daemons::SafeMargins& current() const { return margins_; }

  /// Candidate EOPs: for every characterized frequency point, the safe
  /// voltage at each of `kBackoffLevels`, all at the
  /// characterized safe refresh interval. The nominal point is always
  /// included as the fallback.
  std::vector<hw::Eop> eop_candidates(Volt vdd_nominal,
                                      MegaHertz freq_nominal,
                                      Seconds refresh_nominal) const;

 private:
  daemons::SafeMargins margins_{};
  bool valid_{false};
};

}  // namespace uniserver::core
