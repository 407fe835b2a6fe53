#include "openstack/scheduler.h"

#include <limits>
#include <stdexcept>

#include "openstack/scheduler_index.h"
#include "telemetry/telemetry.h"

namespace uniserver::osk {

PickMetrics& pick_metrics() {
  static PickMetrics m{
      telemetry::counter("cloud.sched.picks", "picks",
                         "Placement queries answered"),
      telemetry::counter("cloud.sched.pick_scan_nodes", "nodes",
                         "Candidate nodes examined across placement queries"),
  };
  return m;
}

void PlacementEngine::require_slot_order(
    const std::vector<ComputeNode*>& nodes) {
  for (std::size_t slot = 0; slot < nodes.size(); ++slot) {
    if (nodes[slot]->slot() != slot) {
      throw std::invalid_argument(nodes[slot]->name() +
                                  " is out of slot order");
    }
  }
}

const char* to_string(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::kFirstFit:
      return "first-fit";
    case SchedulerPolicy::kRoundRobin:
      return "round-robin";
    case SchedulerPolicy::kLeastLoaded:
      return "least-loaded";
    case SchedulerPolicy::kReliabilityAware:
      return "reliability-aware";
    case SchedulerPolicy::kEnergyAware:
      return "energy-aware";
  }
  return "?";
}

const std::vector<SchedulerPolicy>& all_scheduler_policies() {
  static const std::vector<SchedulerPolicy> kPolicies = {
      SchedulerPolicy::kFirstFit,         SchedulerPolicy::kRoundRobin,
      SchedulerPolicy::kLeastLoaded,      SchedulerPolicy::kReliabilityAware,
      SchedulerPolicy::kEnergyAware,
  };
  return kPolicies;
}

const char* to_string(SchedulerEngine engine) {
  switch (engine) {
    case SchedulerEngine::kIndexed:
      return "indexed";
    case SchedulerEngine::kReference:
      return "reference";
  }
  return "?";
}

hv::VmRequirements requirements_for(trace::SlaClass sla) {
  return hv::VmRequirements{.critical = sla == trace::SlaClass::kCritical};
}

hv::Vm vm_from_request(const trace::VmRequest& request) {
  hv::Vm vm;
  vm.id = request.id;
  vm.vcpus = request.vcpus;
  vm.memory_mb = request.memory_mb;
  vm.workload = request.workload;
  vm.requirements = requirements_for(request.sla);
  vm.started_at = request.arrival;
  return vm;
}

bool passes_filters(const ComputeNode& node, const hv::Vm& vm, bool critical) {
  if (!node.fits(vm.vcpus, vm.memory_mb)) return false;
  if (critical && node.metrics().reliability < kCriticalReliabilityFloor) {
    return false;
  }
  return true;
}

bool pick_feasible(const ComputeNode& node, const hv::Vm& vm, bool critical,
                   const PlacementConstraint& constraint) {
  if (&node == constraint.exclude) return false;
  if (constraint.allowed != nullptr && !(*constraint.allowed)[node.slot()]) {
    return false;
  }
  return passes_filters(node, vm, critical);
}

double policy_weight(SchedulerPolicy policy, const ComputeNode& node) {
  switch (policy) {
    case SchedulerPolicy::kFirstFit:
    case SchedulerPolicy::kRoundRobin:
      return 0.0;  // handled positionally
    case SchedulerPolicy::kLeastLoaded:
      return -node.metrics().utilization;
    case SchedulerPolicy::kReliabilityAware:
      // Reliability dominates; mild load-spreading tie-break.
      return node.metrics().reliability * 100.0 -
             node.metrics().utilization;
    case SchedulerPolicy::kEnergyAware:
      // Marginal energy: prefer already-hot nodes (consolidation) with
      // low idle burn; proxy = utilization (fill partially used nodes
      // first) while still fitting.
      return node.metrics().utilization;
  }
  return 0.0;
}

void ReferenceScheduler::bind(std::vector<ComputeNode*> nodes) {
  require_slot_order(nodes);
  nodes_ = std::move(nodes);
  round_robin_cursor_ = 0;
}

ComputeNode* ReferenceScheduler::pick(const hv::Vm& vm, bool critical,
                                      const PlacementConstraint& constraint) {
  pick_metrics().picks.add();
  if (nodes_.empty()) return nullptr;

  if (policy_ == SchedulerPolicy::kFirstFit) {
    for (std::size_t slot = 0; slot < nodes_.size(); ++slot) {
      if (pick_feasible(*nodes_[slot], vm, critical, constraint)) {
        pick_metrics().scan_nodes.add(slot + 1);
        return nodes_[slot];
      }
    }
    pick_metrics().scan_nodes.add(nodes_.size());
    return nullptr;
  }

  if (policy_ == SchedulerPolicy::kRoundRobin) {
    for (std::size_t step = 0; step < nodes_.size(); ++step) {
      const std::size_t slot =
          (round_robin_cursor_ + step) % nodes_.size();
      if (pick_feasible(*nodes_[slot], vm, critical, constraint)) {
        round_robin_cursor_ = (slot + 1) % nodes_.size();
        pick_metrics().scan_nodes.add(step + 1);
        return nodes_[slot];
      }
    }
    pick_metrics().scan_nodes.add(nodes_.size());
    return nullptr;
  }
  pick_metrics().scan_nodes.add(nodes_.size());

  ComputeNode* best = nullptr;
  double best_weight = -std::numeric_limits<double>::infinity();
  for (std::size_t slot = 0; slot < nodes_.size(); ++slot) {
    if (!pick_feasible(*nodes_[slot], vm, critical, constraint)) continue;
    const double weight = policy_weight(policy_, *nodes_[slot]);
    if (weight > best_weight) {
      best = nodes_[slot];
      best_weight = weight;
    }
  }
  return best;
}

std::unique_ptr<PlacementEngine> make_placement_engine(
    SchedulerEngine engine, SchedulerPolicy policy) {
  if (engine == SchedulerEngine::kReference) {
    return std::make_unique<ReferenceScheduler>(policy);
  }
  return std::make_unique<IndexedScheduler>(policy);
}

}  // namespace uniserver::osk
