// Unified hardware-status interface (paper innovation iv: "enable
// monitoring of the hardware status by all layers of the system
// software by extending existing interfaces").
//
// One call assembles everything an upper layer (OpenStack scheduler,
// dashboard, TCO tool) needs to know about a node into a single
// self-describing snapshot: the operating point, how much of the
// characterized margin is in use, live error statistics from the
// HealthLog, the Predictor's risk estimate for the current conditions
// and the isolation state. Also serializes to one key=value line, so
// existing log shippers carry it.
#pragma once

#include <string>

#include "common/units.h"
#include "daemons/healthlog.h"
#include "daemons/predictor.h"
#include "daemons/stresslog.h"
#include "hwmodel/eop.h"
#include "hwmodel/platform.h"

namespace uniserver::daemons {

/// The snapshot handed to upper layers.
struct NodeStatus {
  Seconds timestamp{Seconds{0.0}};
  hw::Eop eop{};
  /// Undervolt applied / characterized safe offset (1.0 = at the floor,
  /// 0 = nominal; <0 when no characterization exists).
  double margin_utilization{-1.0};
  /// Refresh relaxation applied / characterized safe relaxation.
  double refresh_utilization{-1.0};
  /// Correctable-error rate over the HealthLog window (events/s).
  double correctable_rate_per_s{0.0};
  std::uint64_t total_correctable{0};
  std::uint64_t total_uncorrectable{0};
  /// Predictor crash-probability estimate for the given conditions.
  double predicted_crash_probability{0.0};
  /// Silicon age in years.
  double age_years{0.0};
  int retired_cores{0};
  int isolated_channels{0};
};

/// Assembles a status snapshot. `margins` may be invalid/null-like
/// (points empty) when the node was never characterized.
NodeStatus collect_status(const hw::ServerNode& node,
                          const HealthLog& healthlog,
                          const Predictor& predictor,
                          const SafeMargins& margins,
                          const hw::WorkloadSignature& current,
                          Seconds now, int retired_cores,
                          int isolated_channels);

/// One-line key=value serialization ("ST ..." records).
std::string serialize(const NodeStatus& status);

}  // namespace uniserver::daemons
