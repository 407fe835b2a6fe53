// OpenStack-style filter + weigher scheduler with the UniServer
// extensions (paper §4.B): new scheduling policies exploiting the
// fine-grained monitoring data, including a reliability-aware policy
// that keeps critical VMs off nodes with elevated failure risk and an
// energy-aware policy that packs onto the most efficient nodes.
//
// Two engines implement the same placement contract:
//
//   ReferenceScheduler  the original per-request linear scan, kept as
//                       the differential oracle (O(n) per pick);
//   IndexedScheduler    capacity-indexed node sets with O(log n)
//                       lookups and incremental updates on every
//                       allocate/release/crash/migration
//                       (scheduler_index.h).
//
// Both must produce bit-identical placement decisions for every policy
// — enforced by the `scheduler`-label property/differential suites and
// by bench_scheduler_scale.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hypervisor/vm.h"
#include "openstack/node.h"
#include "telemetry/metrics.h"
#include "trace/arrivals.h"

namespace uniserver::osk {

enum class SchedulerPolicy {
  kFirstFit,          ///< baseline: first node that fits
  kRoundRobin,        ///< baseline: rotate across nodes
  kLeastLoaded,       ///< spread by vCPU utilization
  kReliabilityAware,  ///< UniServer: weigh by node reliability metric
  kEnergyAware,       ///< UniServer: weigh by marginal energy cost
};

const char* to_string(SchedulerPolicy policy);

/// All policies, in declaration order (differential sweeps).
const std::vector<SchedulerPolicy>& all_scheduler_policies();

/// Which placement-engine implementation a Cloud runs.
enum class SchedulerEngine {
  kIndexed,    ///< capacity-indexed, O(log n) per pick (default)
  kReference,  ///< linear scan, the differential oracle
};

const char* to_string(SchedulerEngine engine);

/// Per-pick feasibility restrictions beyond the capacity/state filters.
/// Both engines apply them identically, so constraint-based picks stay
/// bit-identical between implementations.
struct PlacementConstraint {
  /// Node excluded from this pick (live-migration source).
  const ComputeNode* exclude{nullptr};
  /// Optional per-slot admission mask (rack power capping); nullptr
  /// admits every slot. Indexed by fleet slot (`ComputeNode::slot()`).
  const std::vector<std::uint8_t>* allowed{nullptr};
};

/// Reliability floor for critical placements.
inline constexpr double kCriticalReliabilityFloor = 0.98;

/// Capacity/state filter shared by all policies and both engines;
/// critical VMs are additionally filtered to nodes at or above
/// `kCriticalReliabilityFloor`.
bool passes_filters(const ComputeNode& node, const hv::Vm& vm, bool critical);

/// Both engines' exact per-node pick test, so their decisions match:
/// not the excluded node, slot admitted by the mask, passes_filters.
bool pick_feasible(const ComputeNode& node, const hv::Vm& vm, bool critical,
                   const PlacementConstraint& constraint);

/// Policy weight from the node's published metrics (higher wins; ties
/// break toward the lower fleet slot). Shared by both engines so their
/// floating-point ranking is bit-identical.
double policy_weight(SchedulerPolicy policy, const ComputeNode& node);

/// The counters every answered pick books, whichever engine answers it:
/// `cloud.sched.picks` and `cloud.sched.pick_scan_nodes`.
struct PickMetrics {
  telemetry::Counter& picks;
  telemetry::Counter& scan_nodes;
};
PickMetrics& pick_metrics();

/// Placement-engine contract. The engine binds to a fleet once (slot i
/// == nodes[i], stable for the engine's lifetime) and answers picks
/// against its view of node state. Callers must signal every change to
/// a bound node's capacity, up state, utilization or reliability with
/// `node_changed` (allocate, release, reserve, crash, reboot, core
/// retirement, a metrics move), and call `refresh_weights` at the
/// control-loop tick, which re-weighs only the signalled nodes. A node
/// nobody signalled keeps its cached weight, which is what lets the
/// indexed engine keep its weight ordering between ticks.
class PlacementEngine {
 public:
  explicit PlacementEngine(SchedulerPolicy policy) : policy_(policy) {}
  virtual ~PlacementEngine() = default;

  PlacementEngine(const PlacementEngine&) = delete;
  PlacementEngine& operator=(const PlacementEngine&) = delete;

  SchedulerPolicy policy() const { return policy_; }

  /// (Re)binds the engine to a fleet; resets any cursor state. Throws
  /// std::invalid_argument unless nodes[i]->slot() == i for every i.
  virtual void bind(std::vector<ComputeNode*> nodes) = 0;

  /// Picks a target node (nullptr if every node is filtered out).
  virtual ComputeNode* pick(const hv::Vm& vm, bool critical,
                            const PlacementConstraint& constraint = {}) = 0;

  /// Capacity, up state, utilization or reliability of one bound node
  /// changed. No-op for a node that is not bound at its slot.
  virtual void node_changed(const ComputeNode* node) = 0;

  /// Re-weighs the nodes signalled since the last refresh (the cloud
  /// control-loop tick).
  virtual void refresh_weights() = 0;

 protected:
  /// The slot check every bind() runs on its input fleet.
  static void require_slot_order(const std::vector<ComputeNode*>& nodes);

  SchedulerPolicy policy_;
};

/// The original per-request linear scan over the fleet. O(n) per pick;
/// kept verbatim as the behavioral oracle the indexed engine is
/// differentially tested against.
class ReferenceScheduler final : public PlacementEngine {
 public:
  explicit ReferenceScheduler(SchedulerPolicy policy)
      : PlacementEngine(policy) {}

  void bind(std::vector<ComputeNode*> nodes) override;
  ComputeNode* pick(const hv::Vm& vm, bool critical,
                    const PlacementConstraint& constraint = {}) override;
  void node_changed(const ComputeNode* /*node*/) override {}
  void refresh_weights() override {}

 private:
  std::vector<ComputeNode*> nodes_;
  std::size_t round_robin_cursor_{0};
};

/// Builds the requested engine implementation.
std::unique_ptr<PlacementEngine> make_placement_engine(
    SchedulerEngine engine, SchedulerPolicy policy);

/// Maps an SLA class to hypervisor-level requirements.
hv::VmRequirements requirements_for(trace::SlaClass sla);

/// Builds the hypervisor-level VM descriptor from a request.
hv::Vm vm_from_request(const trace::VmRequest& request);

}  // namespace uniserver::osk
