// Live-migration model: named constants plus the one settable rate.
//
// Proactive migration (the paper's §5.B strategy: "proactively migrate
// the running workloads on the healthy nodes") is not free: pre-copy
// rounds move the working set over the management network, dirty pages
// are re-sent, and a short stop-and-copy pause completes the switch.
// The orchestrator (migration_orchestrator.h) executes each migration
// asynchronously against this model: rounds advanced by the DES clock,
// convergence checks, per-link bandwidth queueing and cancellation.
#pragma once

#include "common/units.h"

namespace uniserver::osk {

struct MigrationModel {
  /// Bandwidth of one migration stream (MB/s). Concurrent streams are
  /// admitted against `kLinkBandwidthMbPerS` by the orchestrator.
  static constexpr double kBandwidthMbPerS = 1000.0;
  /// Maximum pre-copy rounds before giving up on convergence.
  static constexpr int kPrecopyRounds = 3;
  /// Energy cost per migrated megabyte (NIC + copy).
  static constexpr double kJoulePerMb = 0.02;
  /// Per-rack management-uplink budget (MB/s). Each in-flight
  /// migration pins one `kBandwidthMbPerS` slot on the source rack's
  /// link and one on the destination rack's; an evacuation storm
  /// therefore serializes instead of completing for free.
  static constexpr double kLinkBandwidthMbPerS = 4000.0;
  /// Stop-and-copy is allowed once the projected pause (remaining
  /// dirty set / stream bandwidth) is under this target.
  static constexpr Seconds kDowntimeTarget{0.5};
  /// Pause for the post-copy ownership switch (page tables move, pages
  /// are pulled on demand afterwards).
  static constexpr Seconds kPostcopySwitch{0.05};

  /// Fraction of the just-copied memory dirtied per pre-copy round.
  /// Values >= 1.0 mean pre-copy can never converge (the guest dirties
  /// memory faster than the link drains it) — the orchestrator then
  /// falls back to post-copy. Negative rates clamp to 0.
  double dirty_rate{0.15};
};

}  // namespace uniserver::osk
