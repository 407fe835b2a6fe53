// Lifecycle runner: months of a UniServer node in simulated time.
//
// Drives a UniServerNode through the paper's deployment loop on the
// discrete-event engine:
//   - the hypervisor control loop ticks continuously;
//   - the silicon ages (margin decays), so the once-safe EOP drifts
//     toward the crash point and correctable errors start climbing;
//   - the HealthLog threshold (reactive) and the StressLog's periodic
//     schedule ("every 2-3 months", paper §3.D) both trigger
//     re-characterization cycles that refresh the margins;
//   - VMs lost to errors or crashes are re-created (a long-running
//     service that restarts), which keeps the load, and therefore the
//     droop stress, constant over the deployment;
//   - everything is recorded so the aging ablation can compare
//     adaptive UniServer margins against a characterize-once baseline.
#pragma once

#include <cstdint>

#include "common/units.h"
#include "core/uniserver_node.h"
#include "sim/simulator.h"

namespace uniserver::core {

struct LifecycleConfig {
  /// Hypervisor control-loop period.
  Seconds tick{Seconds{300.0}};
  /// Simulated deployment length.
  Seconds horizon{Seconds{365.0 * 24.0 * 3600.0}};
  /// Wear accumulated per simulated second (>1 accelerates aging so
  /// tests and benches can compress years into fewer events).
  double aging_acceleration{1.0};
  /// Periodic StressLog schedule; <= 0 disables periodic cycles
  /// (re-characterization then only happens on the HealthLog trigger).
  Seconds periodic_recharacterization{Seconds{90.0 * 24.0 * 3600.0}};
  /// Whether re-characterization is allowed at all (false = the
  /// characterize-once baseline for the aging ablation).
  bool adaptive{true};
};

struct LifecycleStats {
  std::uint64_t ticks{0};
  std::uint64_t node_crashes{0};
  std::uint64_t vm_kills{0};
  std::uint64_t masked_errors{0};
  int recharacterizations{0};
  double energy_kwh{0.0};
  /// Undervolt depth at the end of the run (percent below nominal).
  double final_undervolt_percent{0.0};
  /// Margin the silicon lost to aging over the run (percent of Vnom).
  double aging_loss_percent{0.0};
};

class LifecycleRunner {
 public:
  LifecycleRunner(UniServerNode& node, const LifecycleConfig& config)
      : node_(node), config_(config) {}

  /// Characterizes, deploys and runs the node to the horizon.
  LifecycleStats run();

 private:
  UniServerNode& node_;
  LifecycleConfig config_;
};

}  // namespace uniserver::core
