// Cloud orchestrator: the OpenStack-like control plane over a fleet of
// UniServer compute nodes. Accepts VM request streams, schedules them
// with a pluggable policy, monitors the nodes' HealthLog streams
// through the log-based failure predictor, and — when enabled —
// proactively evacuates VMs from nodes predicted to fail (paper §4.B,
// §5.B: the integrated fault-tolerance component).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/fnv.h"
#include "common/units.h"
#include "openstack/failure_predictor.h"
#include "openstack/migration.h"
#include "openstack/migration_orchestrator.h"
#include "openstack/monitor.h"
#include "openstack/node.h"
#include "openstack/scheduler.h"
#include "serve/serve.h"
#include "trace/arrivals.h"

namespace uniserver::osk {

struct CloudConfig {
  SchedulerPolicy policy{SchedulerPolicy::kReliabilityAware};
  /// Placement-engine implementation. kIndexed is the production
  /// engine; kReference is the linear-scan oracle the differential
  /// suites compare it against (bit-identical decisions required).
  SchedulerEngine engine{SchedulerEngine::kIndexed};
  /// Keep the full per-decision placement log in memory (the
  /// differential runner replays it). The rolling placement digest is
  /// always maintained; the log is opt-in because fleet-scale runs
  /// make millions of decisions.
  bool record_placements{false};
  bool proactive_migration{true};
  /// SLA-aware EOP: nodes hosting critical VMs back their undervolt
  /// off by this much and return their DRAM to nominal refresh
  /// (<= 0 disables the policy).
  double sla_eop_backoff_percent{0.0};
  /// Rack power provisioning: nodes are grouped `nodes_per_rack` at a
  /// time and a rack's aggregate node power must stay under the cap
  /// when admitting a VM (0 disables capping). Undervolted fleets fit
  /// more work under the same provisioned power — the infrastructure
  /// half of the TCO argument.
  Watt rack_power_cap{Watt{0.0}};
  int nodes_per_rack{8};
  Seconds tick{Seconds{60.0}};
  MigrationModel migration{};
  LogFailurePredictor::Config predictor{};
  /// Request-level serving layer over the placed VMs (opt-in; see
  /// serve/serve.h). Disabled it costs nothing and changes no digest.
  serve::ServeConfig serve{};
};

/// End-of-run accounting.
struct CloudStats {
  std::uint64_t submitted{0};
  std::uint64_t accepted{0};
  std::uint64_t rejected{0};
  /// Rejections specifically due to the rack power cap.
  std::uint64_t rejected_for_power{0};
  std::uint64_t completed{0};
  std::uint64_t lost_to_errors{0};
  std::uint64_t lost_to_node_crash{0};
  std::uint64_t evacuations{0};
  // Cloud::stats() fills the six migration books below from the
  // orchestrator's MigrationStats; each names its source field.
  /// Cutovers committed (`completed`): the VM now lives on the target.
  std::uint64_t migrations{0};
  /// Tickets admitted to a link (`started`).
  std::uint64_t migrations_started{0};
  /// Tickets abandoned in flight (`cancelled`).
  std::uint64_t migrations_cancelled{0};
  /// Completions that went through the post-copy fallback
  /// (`postcopy_completed`).
  std::uint64_t postcopy_migrations{0};
  std::uint64_t migration_failures{0};
  std::uint64_t node_crash_events{0};
  std::uint64_t sla_violations{0};
  double total_energy_kwh{0.0};
  /// Portion of total_energy_kwh spent moving VMs (pre-copy + switch);
  /// split out so energy accounting closes: cluster total = sum of
  /// per-node energy + migration energy (the fuzz oracle checks this).
  double migration_energy_kwh{0.0};
  /// Copy traffic moved by migrations, including rounds of tickets
  /// later cancelled (`transferred_mb`).
  double migration_transferred_mb{0.0};
  double migration_downtime_s{0.0};  ///< `downtime_s`
  double mean_node_availability{1.0};

  /// Fraction of accepted VMs that ran to natural completion or were
  /// still healthy at the end of the run.
  double vm_survival_rate() const {
    const std::uint64_t lost = lost_to_errors + lost_to_node_crash;
    return accepted == 0
               ? 1.0
               : 1.0 - static_cast<double>(lost) /
                           static_cast<double>(accepted);
  }
};

class Cloud {
 public:
  /// Node-layer books published as counters (see publish_books()).
  static constexpr std::size_t kNodeBooks = 16;

  Cloud(const CloudConfig& config,
        std::vector<std::unique_ptr<ComputeNode>> nodes);

  // The HealthLog subscriptions installed by wire_monitoring() capture
  // `this`; moving a Cloud would leave them dangling.
  Cloud(const Cloud&) = delete;
  Cloud& operator=(const Cloud&) = delete;

  /// Builds a fleet of `count` identical nodes.
  static std::unique_ptr<Cloud> make_uniform(const CloudConfig& config,
                                             const hw::NodeSpec& node_spec,
                                             const hv::HvConfig& hv_config,
                                             int count, std::uint64_t seed);

  /// Runs the workload: places arrivals, retires departures, ticks the
  /// fleet and applies the proactive-migration policy until `horizon`.
  /// On return the process-wide `cloud.*`, `cloud.mig.*`, `serve.*`,
  /// `hv.*` and `daemon.healthlog.*` counters include every event the
  /// layers and the fleet's nodes booked so far, injected ones too.
  void run(const std::vector<trace::VmRequest>& requests, Seconds horizon);

  /// The run's books. The migration fields are the orchestrator's
  /// (MigrationStats), which owns them.
  CloudStats stats() const;
  std::vector<ComputeNode*> node_ptrs();
  /// Read-only fleet view for invariant oracles and monitoring.
  std::vector<const ComputeNode*> node_views() const;
  Seconds now() const { return now_; }
  /// Fine-grained per-VM monitoring (paper §4.B): usage profiles,
  /// windowed error hits and susceptibility scores, used to order
  /// evacuations most-susceptible-first.
  const VmMonitor& monitor() const { return monitor_; }

  // -- fault-injection interface (uniserver-fuzz) ---------------------
  // Deterministic hooks the scenario fuzzer drives. Both keep the
  // cloud's books balanced, exactly as the organic paths do.

  /// Where the control plane believes each accepted-and-running VM is.
  struct ActivePlacement {
    std::uint64_t id{0};
    const ComputeNode* node{nullptr};
  };
  std::vector<ActivePlacement> active_placements() const;

  /// Hard-fails an up node now (power loss): resident VMs are lost and
  /// accounted like an organic crash. No-op on a down node.
  void inject_node_crash(int node_index);

  /// Restarts a node's monitoring daemons: the in-memory HealthLog and
  /// the predictor's history for the node are wiped (the restarted
  /// daemon starts from an empty logfile, paper §3.C).
  void inject_daemon_restart(int node_index);

  // -- evacuation storms ----------------------------------------------

  /// Imminent rack power loss (one feed down, running on backup): every
  /// VM in the rack containing `node_index` is urgently migrated to
  /// nodes outside the rack at crash-evacuation priority. The resulting
  /// burst serializes through the per-link bandwidth budgets.
  void inject_rack_power_loss(int node_index);

  /// EOP retreat: the node abandons its extended operating point (back
  /// to nominal voltage/frequency/refresh) and its VMs are drained at
  /// retreat priority — the paper's reaction to a predicted-unsafe
  /// margin. A mass retreat is a sequence of these.
  void inject_eop_retreat(int node_index);

  /// The async migration control plane (read-only: oracles, tests).
  const MigrationOrchestrator& migrations() const { return orchestrator_; }
  const CloudConfig& config() const { return config_; }

  /// The request serving layer; nullptr unless config.serve.enabled.
  const serve::ServeLayer* serving() const { return serve_.get(); }

  /// Fuzzer hook: a flash crowd of `count` extra requests at `at`,
  /// spread round-robin across the live services. No-op when the
  /// serving layer is disabled.
  void inject_request_burst(Seconds at, std::uint64_t count);

  /// Rack index of a node (grouping is by construction order).
  int rack_of(const ComputeNode* node) const;
  /// Aggregate current power draw of every rack, indexed by rack, in
  /// one pass over the fleet (what rack power admission checks).
  std::vector<Watt> rack_power() const;

  // -- placement-decision audit trail ---------------------------------

  /// One scheduler decision, in decision order. `slot` is the fleet
  /// index of the chosen node, -1 for a rejection (no feasible node).
  struct PlacementDecision {
    std::uint64_t vm_id{0};
    int slot{-1};
    bool evacuation{false};
  };
  /// The decision log (empty unless config.record_placements).
  const std::vector<PlacementDecision>& placements() const {
    return placements_;
  }
  /// Rolling FNV-1a digest over every decision ever made, always
  /// maintained. Two clouds made identical placement decisions iff
  /// their digests match — what the differential suites and
  /// bench_scheduler_scale assert between engines.
  std::uint64_t placement_digest() const { return placement_digest_; }

 private:
  struct ActiveVm {
    trace::VmRequest request;
    ComputeNode* node{nullptr};
    Seconds departs_at{Seconds{0.0}};
  };
  /// A departure-heap entry; the heap's top is the earliest (at, id).
  struct Departure {
    double at{0.0};
    std::uint64_t id{0};
    bool operator>(const Departure& other) const {
      return at != other.at ? at > other.at : id > other.id;
    }
  };

  void wire_monitoring();
  MigrationOrchestrator::Callbacks orchestrator_callbacks();
  void handle_arrival(const trace::VmRequest& request);
  void handle_departures();
  void tick_nodes(Seconds window);
  void update_reliability();
  void proactive_evacuation();
  /// Submits one migration ticket per resident VM (susceptibility
  /// order), excluding `banned` nodes from the pick. Returns how many
  /// tickets were accepted.
  int evacuate_node(ComputeNode* source, MigrationPriority priority,
                    const std::vector<std::uint8_t>* banned);
  void mark_lost(std::uint64_t vm_id, bool node_crash);
  /// Books a node crash (organic or injected) after the node dropped
  /// its VMs: counter, trace, migration cancellations, lost VMs.
  void account_node_crash(ComputeNode* node,
                          const std::vector<std::uint64_t>& lost,
                          bool injected);
  /// Nodes per rack; racks are consecutive runs of fleet slots.
  std::size_t rack_size() const {
    return static_cast<std::size_t>(std::max(1, config_.nodes_per_rack));
  }
  /// Folds one decision into the digest (and the log when recording).
  void record_decision(std::uint64_t vm_id, const ComputeNode* target,
                       bool evacuation);
  /// Adds each book's growth since the last call to its process-wide
  /// counter and sets the run-state gauges (`cloud.energy_kwh`, the
  /// `cloud.mig.*` gauges, `serve.queue_depth`). The layers and the
  /// nodes count each event once, in their books; this is the only
  /// writer of those counters and gauges.
  void publish_books();

  CloudConfig config_;
  std::vector<std::unique_ptr<ComputeNode>> nodes_;
  std::unique_ptr<PlacementEngine> engine_;
  /// Fleet slot by node pointer: O(1) rack_of and decision logging.
  std::unordered_map<const ComputeNode*, int> slot_index_;
  LogFailurePredictor predictor_;
  VmMonitor monitor_;
  MigrationOrchestrator orchestrator_;
  std::unique_ptr<serve::ServeLayer> serve_;
  std::map<std::uint64_t, ActiveVm> active_;
  std::priority_queue<Departure, std::vector<Departure>, std::greater<>>
      departures_;
  /// The cloud's own books; stats() adds the orchestrator's.
  CloudStats stats_;
  std::vector<PlacementDecision> placements_;
  std::uint64_t placement_digest_{fnv::kOffset};
  Seconds now_{Seconds{0.0}};
  /// The books as of the last publish_books(); the node books as fleet
  /// sums, in publish_books() order.
  CloudStats published_;
  MigrationStats published_migrations_;
  serve::ServeStats published_serve_;
  std::array<std::uint64_t, kNodeBooks> published_nodes_{};
};

}  // namespace uniserver::osk
