// Live-migration model knobs.
//
// Proactive migration (the paper's §5.B strategy: "proactively migrate
// the running workloads on the healthy nodes") is not free: pre-copy
// rounds move the working set over the management network, dirty pages
// are re-sent, and a short stop-and-copy pause completes the switch.
// The orchestrator (migration_orchestrator.h) executes each migration
// asynchronously against these knobs: rounds advanced by the DES clock,
// convergence checks, per-link bandwidth queueing and cancellation.
#pragma once

#include "common/units.h"

namespace uniserver::osk {

struct MigrationModel {
  /// Bandwidth of one migration stream (MB/s). Concurrent streams are
  /// admitted against `link_bandwidth_mb_per_s` by the orchestrator.
  double bandwidth_mb_per_s{1000.0};
  /// Fraction of the just-copied memory dirtied per pre-copy round.
  /// Values >= 1.0 mean pre-copy can never converge (the guest dirties
  /// memory faster than the link drains it) — the orchestrator then
  /// falls back to post-copy. Negative rates clamp to 0.
  double dirty_rate{0.15};
  /// Maximum pre-copy rounds before giving up on convergence.
  int precopy_rounds{3};
  /// Energy cost per migrated megabyte (NIC + copy).
  double joule_per_mb{0.02};
  /// Per-rack management-uplink budget (MB/s). Each in-flight
  /// migration pins one `bandwidth_mb_per_s` slot on the source rack's
  /// link and one on the destination rack's; an evacuation storm
  /// therefore serializes instead of completing for free.
  double link_bandwidth_mb_per_s{4000.0};
  /// Stop-and-copy is allowed once the projected pause (remaining
  /// dirty set / stream bandwidth) is under this target.
  Seconds downtime_target{Seconds{0.5}};
  /// Pause for the post-copy ownership switch (page tables move, pages
  /// are pulled on demand afterwards).
  Seconds postcopy_switch{Seconds{0.05}};
};

}  // namespace uniserver::osk
