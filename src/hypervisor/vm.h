// Virtual machine descriptors as the hypervisor sees them.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.h"
#include "hwmodel/workload_signature.h"

namespace uniserver::hv {

/// Per-VM QoS requirements (the node-level reflection of the SLA the
/// cloud layer negotiated).
struct VmRequirements {
  /// Acceptable probability of a fatal VM event per hour of runtime.
  double crash_risk_budget_per_hour{1e-3};
  /// Critical VMs are placed on reliable resources and never scheduled
  /// onto cores flagged by the HealthLog.
  bool critical{false};
};

/// A VM instance resident on the node. Nothing changes a resident VM:
/// the hypervisor keeps the copy it was created with, so its memory and
/// workload activity are the usage profile the cloud's VmMonitor
/// records once, at admission.
struct Vm {
  std::uint64_t id{0};
  std::string name;
  int vcpus{1};
  /// Resident memory.
  double memory_mb{1024.0};
  hw::WorkloadSignature workload{};
  VmRequirements requirements{};
  Seconds started_at{Seconds{0.0}};
};

/// Lifecycle states used in kill/restart accounting.
enum class VmState { kRunning, kKilled, kMigratedOut };

const char* to_string(VmState state);

}  // namespace uniserver::hv
