// A managed compute node: server hardware + UniServer hypervisor plus
// the metrics OpenStack tracks. The paper adds a *reliability* metric to
// the traditional node availability / utilization / energy triple
// (§2: "an additional node reliability metric is added").
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "hwmodel/platform.h"
#include "daemons/stresslog.h"
#include "hypervisor/hypervisor.h"

namespace uniserver::osk {

struct NodeMetrics {
  double availability{1.0};  ///< uptime fraction since boot
  double utilization{0.0};   ///< vCPUs committed / usable cores
  double energy_kwh{0.0};    ///< cumulative energy
  double reliability{1.0};   ///< 1 - smoothed failure-risk estimate
};

class ComputeNode {
 public:
  ComputeNode(std::string name, const hw::NodeSpec& spec,
              const hv::HvConfig& hv_config, std::uint64_t seed);

  // Owns hardware and hypervisor; movable only via pointer semantics.
  ComputeNode(const ComputeNode&) = delete;
  ComputeNode& operator=(const ComputeNode&) = delete;

  const std::string& name() const { return name_; }
  hw::ServerNode& server() { return *server_; }
  hv::Hypervisor& hypervisor() { return *hypervisor_; }
  const hv::Hypervisor& hypervisor() const { return *hypervisor_; }

  bool up() const { return up_; }
  int total_vcpus() const;
  /// Committed vCPUs / memory: the hypervisor's resident-VM totals.
  int used_vcpus() const { return hypervisor_->vm_totals().vcpus; }
  int free_vcpus() const {
    return total_vcpus() - used_vcpus() - reserved_vcpus_;
  }
  double memory_capacity_mb() const { return server_->memory_capacity_mb(); }
  double used_memory_mb() const {
    return hypervisor_->vm_totals().memory_mb;
  }
  double free_memory_mb() const {
    return memory_capacity_mb() - used_memory_mb() - reserved_memory_mb_;
  }

  // -- migration reservations -----------------------------------------
  // An in-flight migration holds its destination capacity from submit
  // to cutover so concurrent picks cannot over-commit the node. Both
  // placement engines see reservations through free_vcpus/free_memory,
  // keeping their decisions bit-identical. Crashes drop every
  // reservation with the node (the orchestrator cancels the tickets).

  /// Holds capacity for an inbound migration; false if it does not fit.
  bool reserve(int vcpus, double memory_mb);
  /// Releases a reservation taken by `reserve`. No-op on a node whose
  /// reservations were already cleared by a crash.
  void unreserve(int vcpus, double memory_mb);
  int reserved_vcpus() const { return reserved_vcpus_; }
  double reserved_memory_mb() const { return reserved_memory_mb_; }

  NodeMetrics metrics() const { return metrics_; }
  /// Externally updated by the cloud's failure predictor.
  void set_reliability(double reliability);

  /// Commissioned margins (stored at commissioning so runtime policies
  /// can move between EOP levels without re-characterizing).
  void set_margins(const daemons::SafeMargins& margins) {
    margins_ = margins;
    has_margins_ = true;
  }
  bool has_margins() const { return has_margins_; }
  const daemons::SafeMargins& margins() const { return margins_; }

  /// SLA-aware EOP control (paper §2: EOP optimization "is guided by
  /// the system requirements of the end-user for each VM"): while a
  /// critical VM is resident the node backs its undervolt off by
  /// `backoff_percent`; otherwise it runs the full characterized depth.
  /// No-op until margins are set. Returns true if the EOP changed.
  bool apply_sla_aware_eop(double backoff_percent);

  /// Places a VM (returns false when filtered out by capacity or state).
  bool place_vm(const hv::Vm& vm);
  bool remove_vm(std::uint64_t id) { return hypervisor_->destroy_vm(id); }

  struct NodeTick {
    /// The node went down this tick (hardware crash or fatal
    /// hypervisor error).
    bool crashed{false};
    /// The hypervisor's SDC kills, then, on a crash, every resident.
    std::vector<std::uint64_t> vms_lost;
    /// The hypervisor's report; all zero for a node that is down.
    hv::TickReport report;
  };

  /// Advances the node by one window. A down node consumes the window
  /// as repair time and counts it against availability.
  NodeTick tick(Seconds now, Seconds window);

  /// Repair/reboot completes: VMs are gone, node is schedulable again.
  void reboot();

  /// Hard-fails an up node now: an injected power loss, and the crash
  /// branch of tick(). All resident VMs are destroyed and their ids
  /// returned so the caller can account the losses; the node then
  /// serves `repair_time`. Returns empty on a node that is already down.
  std::vector<std::uint64_t> force_crash();

 private:
  std::string name_;
  std::unique_ptr<hw::ServerNode> server_;
  std::unique_ptr<hv::Hypervisor> hypervisor_;
  bool up_{true};
  Seconds down_time_{Seconds{0.0}};
  Seconds repair_remaining_{Seconds{0.0}};
  Seconds repair_time_{Seconds{300.0}};
  NodeMetrics metrics_{};
  daemons::SafeMargins margins_{};
  bool has_margins_{false};
  int reserved_vcpus_{0};
  double reserved_memory_mb_{0.0};
};

}  // namespace uniserver::osk
