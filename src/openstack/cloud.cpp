#include "openstack/cloud.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>

#include "telemetry/telemetry.h"

namespace uniserver::osk {

namespace {
// The counters mirror the layers' books, and the gauges read the run's
// state; Cloud::publish_books() is the only writer of both.
struct CloudMetrics {
  telemetry::Counter& submitted = telemetry::counter(
      "cloud.vms_submitted", "vms", "VM requests submitted");
  telemetry::Counter& accepted = telemetry::counter(
      "cloud.vms_accepted", "vms", "VM requests placed on a node");
  telemetry::Counter& rejected = telemetry::counter(
      "cloud.vms_rejected", "vms", "VM requests with no feasible node");
  telemetry::Counter& rejected_for_power = telemetry::counter(
      "cloud.vms_rejected_for_power", "vms",
      "Rejections caused by the rack power cap");
  telemetry::Counter& completed = telemetry::counter(
      "cloud.vms_completed", "vms", "VMs that ran to natural completion");
  telemetry::Counter& lost = telemetry::counter(
      "cloud.vms_lost", "vms", "VMs lost to errors or node crashes");
  telemetry::Counter& evacuations = telemetry::counter(
      "cloud.evacuations", "events",
      "Proactive evacuations triggered by the failure predictor");
  telemetry::Counter& migration_failures = telemetry::counter(
      "cloud.migration_failures", "vms",
      "Migrations abandoned (no target or capacity raced away)");
  telemetry::Counter& node_crashes = telemetry::counter(
      "cloud.node_crashes", "events", "Node crash events observed");
  telemetry::Counter& sla_violations = telemetry::counter(
      "cloud.sla_violations", "vms",
      "Non-best-effort VMs lost (SLA violations)");
  telemetry::Counter& mig_submitted = telemetry::counter(
      "cloud.mig.submitted", "migrations",
      "Migration tickets submitted to the orchestrator");
  telemetry::Counter& mig_started = telemetry::counter(
      "cloud.mig.started", "migrations",
      "Migrations admitted to a link (left the queue)");
  telemetry::Counter& mig_completed = telemetry::counter(
      "cloud.mig.completed", "migrations",
      "Migrations whose cutover committed");
  telemetry::Counter& mig_cancelled = telemetry::counter(
      "cloud.mig.cancelled", "migrations",
      "Migrations abandoned in flight (crash, departure, commit race)");
  telemetry::Counter& mig_postcopy_fallbacks = telemetry::counter(
      "cloud.mig.postcopy_fallbacks", "migrations",
      "Pre-copy runs that exhausted their rounds and switched to post-copy");
  telemetry::Gauge& energy_kwh = telemetry::gauge(
      "cloud.energy_kwh", "kwh", "Cumulative fleet energy this run");
  telemetry::Gauge& mig_active = telemetry::gauge(
      "cloud.mig.active", "migrations",
      "Migrations currently copying on a link");
  telemetry::Gauge& mig_queued = telemetry::gauge(
      "cloud.mig.queued", "migrations",
      "Migrations waiting for link bandwidth");
  telemetry::Gauge& mig_link_utilization = telemetry::gauge(
      "cloud.mig.link_utilization", "fraction",
      "Busy fraction of management-link stream slots");
  telemetry::Gauge& mig_transferred_mb = telemetry::gauge(
      "cloud.mig.transferred_mb", "mb",
      "Cumulative migration copy traffic this run");
  // The node layers' counters, in the order publish_books() sums them.
  std::array<telemetry::Counter*, Cloud::kNodeBooks> node_books{
      &telemetry::counter("hv.ticks", "ticks", "Hypervisor control-loop ticks"),
      &telemetry::counter("hv.cache_ecc_masked", "events",
                          "Correctable cache errors masked from guests"),
      &telemetry::counter("hv.dram_ecc_masked", "events",
                          "DRAM events absorbed by DIMM ECC"),
      &telemetry::counter("hv.cpu_sdcs", "events",
                          "Uncorrected near-threshold CPU SDCs"),
      &telemetry::counter("hv.dram_errors_relaxed", "events",
                          "Uncorrectable decay events on relaxed channels"),
      &telemetry::counter("hv.vm_kills", "events", "Guests killed by an SDC"),
      &telemetry::counter("hv.vm_restores", "events",
                          "Guests restored from a checkpoint"),
      &telemetry::counter(
          "hv.fatal_events", "events",
          "Ticks in which an SDC hit a crucial hypervisor object (fatal)"),
      &telemetry::counter(
          "hv.protection_saves", "events",
          "Crucial-object hits absorbed by selective protection"),
      &telemetry::counter("hv.node_crashes", "events",
                          "Node crashes from undervolting past the margin"),
      &telemetry::counter("hv.cores_retired", "cores",
                          "Cores isolated for sustained error pressure"),
      &telemetry::counter("hv.channels_isolated", "channels",
                          "Memory channels pinned back to nominal refresh"),
      &telemetry::counter("daemon.healthlog.vectors", "records",
                          "Periodic monitoring vectors recorded"),
      &telemetry::counter("daemon.healthlog.errors_correctable", "events",
                          "Correctable error events logged"),
      &telemetry::counter("daemon.healthlog.errors_uncorrectable", "events",
                          "Uncorrectable error events logged"),
      &telemetry::counter(
          "daemon.healthlog.recharacterize_triggers", "events",
          "Re-characterization triggers raised (rate over threshold)"),
  };
  telemetry::Histogram& placement_wall_us = telemetry::histogram(
      "cloud.placement_wall_us", 0.0, 1000.0, 100, "us",
      "Wall-clock latency of one scheduler placement decision");
};

CloudMetrics& metrics() {
  static CloudMetrics m;
  return m;
}

// Registered on first use, so a run without serving adds no serve.*
// names.
struct ServeMetrics {
  telemetry::Counter& generated = telemetry::counter(
      "serve.requests_generated", "requests",
      "User requests emitted by the open-loop generator (incl. bursts)");
  telemetry::Counter& completed = telemetry::counter(
      "serve.requests_completed", "requests",
      "Requests whose virtual completion time has passed");
  telemetry::Counter& dropped = telemetry::counter(
      "serve.requests_dropped", "requests",
      "Requests shed at the queue cap, unroutable, or orphaned by VM loss");
  telemetry::Counter& slo_violations = telemetry::counter(
      "serve.slo_violations", "requests",
      "Admitted requests whose sojourn exceeded their SLA latency target");
  telemetry::Counter& stalls = telemetry::counter(
      "serve.stalls", "events",
      "Dispatch stalls injected by fault paths (restore, SDC hit, cutover)");
  telemetry::Gauge& queue_depth = telemetry::gauge(
      "serve.queue_depth", "requests",
      "Outstanding requests across all VM queues after the last tick");
};

ServeMetrics& serve_metrics() {
  static ServeMetrics m;
  return m;
}
}  // namespace

Cloud::Cloud(const CloudConfig& config,
             std::vector<std::unique_ptr<ComputeNode>> nodes)
    : config_(config),
      nodes_(std::move(nodes)),
      engine_(make_placement_engine(config.engine, config.policy)),
      predictor_(config.predictor),
      orchestrator_(config.migration, orchestrator_callbacks()) {
  if (config_.serve.enabled) {
    serve_ = std::make_unique<serve::ServeLayer>(config_.serve);
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    slot_index_[nodes_[i].get()] = static_cast<int>(i);
  }
  engine_->bind(node_ptrs());
  wire_monitoring();
}

std::unique_ptr<Cloud> Cloud::make_uniform(const CloudConfig& config,
                                           const hw::NodeSpec& node_spec,
                                           const hv::HvConfig& hv_config,
                                           int count, std::uint64_t seed) {
  std::vector<std::unique_ptr<ComputeNode>> nodes;
  Rng rng(seed);
  nodes.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    nodes.push_back(std::make_unique<ComputeNode>(
        "node-" + std::to_string(i), node_spec, hv_config, rng.next()));
  }
  return std::make_unique<Cloud>(config, std::move(nodes));
}

std::vector<ComputeNode*> Cloud::node_ptrs() {
  std::vector<ComputeNode*> ptrs;
  ptrs.reserve(nodes_.size());
  for (auto& node : nodes_) ptrs.push_back(node.get());
  return ptrs;
}

std::vector<const ComputeNode*> Cloud::node_views() const {
  std::vector<const ComputeNode*> ptrs;
  ptrs.reserve(nodes_.size());
  for (const auto& node : nodes_) ptrs.push_back(node.get());
  return ptrs;
}

std::vector<Cloud::ActivePlacement> Cloud::active_placements() const {
  std::vector<ActivePlacement> placements;
  placements.reserve(active_.size());
  for (const auto& [id, active] : active_) {
    placements.push_back(ActivePlacement{id, active.node});
  }
  return placements;
}

CloudStats Cloud::stats() const {
  CloudStats stats = stats_;
  const MigrationStats& books = orchestrator_.stats();
  stats.migrations = books.completed;
  stats.migrations_started = books.started;
  stats.migrations_cancelled = books.cancelled;
  stats.migration_transferred_mb = books.transferred_mb;
  stats.migration_downtime_s = books.downtime_s;
  stats.postcopy_migrations = books.postcopy_completed;
  return stats;
}

void Cloud::inject_node_crash(int node_index) {
  if (node_index < 0 || node_index >= static_cast<int>(nodes_.size())) {
    return;
  }
  ComputeNode* node = nodes_[static_cast<std::size_t>(node_index)].get();
  if (!node->up()) return;
  const std::vector<std::uint64_t> lost = node->force_crash();
  engine_->node_changed(node);
  account_node_crash(node, lost, true);
}

void Cloud::inject_daemon_restart(int node_index) {
  if (node_index < 0 || node_index >= static_cast<int>(nodes_.size())) {
    return;
  }
  ComputeNode* node = nodes_[static_cast<std::size_t>(node_index)].get();
  // The restarted daemon begins from an empty logfile, so the predictor
  // history built from its stream restarts too.
  node->hypervisor().healthlog().clear();
  predictor_.reset(static_cast<std::size_t>(node_index));
}

MigrationOrchestrator::Callbacks Cloud::orchestrator_callbacks() {
  MigrationOrchestrator::Callbacks cb;
  cb.node_changed = [this](ComputeNode* node) {
    engine_->node_changed(node);
  };
  cb.copy_traffic = [this](double mb) {
    // Copy traffic is energy on the wire whether or not the ticket
    // eventually commits — both ledgers accrue per round so the
    // energy-balance oracle closes with migrations still in flight.
    const double kwh = Joule{mb * MigrationModel::kJoulePerMb}.kwh();
    stats_.total_energy_kwh += kwh;
    stats_.migration_energy_kwh += kwh;
  };
  cb.commit = [this](const MigrationTicket& t, bool post_copy) -> bool {
    (void)post_copy;  // books move the same way; the ticket keeps the flag
    const auto it = active_.find(t.vm_id);
    if (it == active_.end() || it->second.node != t.source) return false;
    const auto& vms = t.source->hypervisor().vms();
    const auto vm_it = vms.find(t.vm_id);
    if (vm_it == vms.end()) return false;
    const hv::Vm vm = vm_it->second;
    t.source->remove_vm(t.vm_id);
    engine_->node_changed(t.source);
    if (!t.dest->place_vm(vm)) {
      // Capacity raced away under the reservation; put the VM back.
      engine_->node_changed(t.dest);
      if (!t.source->place_vm(vm)) mark_lost(t.vm_id, false);
      engine_->node_changed(t.source);
      ++stats_.migration_failures;
      return false;
    }
    engine_->node_changed(t.dest);
    it->second.node = t.dest;
    if (serve_) {
      // The guest pauses for the stop-and-copy cutover: its queue
      // stalls for the downtime, then serves at the target's EOP.
      serve_->on_vm_moved(t.vm_id, &t.dest->server());
      serve_->add_stall(t.vm_id, now_, t.downtime);
    }
    return true;
  };
  cb.lose_postcopy = [this](const MigrationTicket& t) {
    // The VM runs on the destination but its unpulled pages died with
    // the source: the VM is unrecoverable.
    t.dest->remove_vm(t.vm_id);
    engine_->node_changed(t.dest);
    mark_lost(t.vm_id, true);
  };
  return cb;
}

void Cloud::wire_monitoring() {
  // Every node's HealthLog error stream feeds the cloud-level failure
  // predictor (the paper's extended monitoring interface, §2(iv)).
  predictor_.resize(nodes_.size());
  for (std::size_t slot = 0; slot < nodes_.size(); ++slot) {
    nodes_[slot]->hypervisor().healthlog().subscribe_errors(
        [this, slot](const daemons::ErrorEvent& event) {
          predictor_.observe(slot, event);
        });
  }
}

int Cloud::rack_of(const ComputeNode* node) const {
  const auto it = slot_index_.find(node);
  if (it == slot_index_.end()) return 0;
  return it->second / static_cast<int>(rack_size());
}

std::vector<Watt> Cloud::rack_power() const {
  const std::size_t per_rack = rack_size();
  std::vector<Watt> watts((nodes_.size() + per_rack - 1) / per_rack,
                          Watt{0.0});
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    ComputeNode* node = nodes_[i].get();
    watts[i / per_rack] += node->server().node_power(
        node->hypervisor().aggregate_signature(), node->used_vcpus());
  }
  return watts;
}

void Cloud::record_decision(std::uint64_t vm_id, const ComputeNode* target,
                            bool evacuation) {
  int slot = -1;
  if (target != nullptr) {
    const auto it = slot_index_.find(target);
    if (it != slot_index_.end()) slot = it->second;
  }
  placement_digest_ = fnv::mix_u64(placement_digest_, vm_id);
  placement_digest_ = fnv::mix_u64(
      placement_digest_, static_cast<std::uint64_t>(
                             static_cast<std::int64_t>(slot)));
  placement_digest_ = fnv::mix_u64(placement_digest_, evacuation ? 1 : 0);
  if (config_.record_placements) {
    placements_.push_back(PlacementDecision{vm_id, slot, evacuation});
  }
}

void Cloud::handle_arrival(const trace::VmRequest& request) {
  ++stats_.submitted;
  hv::Vm vm = vm_from_request(request);
  // Rack power admission: nodes whose rack has no headroom for this VM
  // are masked out of the pick. One O(n) pass computes every rack's
  // current draw, so per-node admission is O(1).
  PlacementConstraint constraint;
  std::vector<std::uint8_t> allowed;
  bool power_limited = false;
  if (config_.rack_power_cap.value > 0.0 && !nodes_.empty()) {
    const std::size_t per_rack = rack_size();
    const std::vector<Watt> rack_watts = rack_power();
    allowed.assign(nodes_.size(), 1);
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      ComputeNode* node = nodes_[i].get();
      // Marginal power of the new VM: its vCPUs at the node's EOP.
      const auto& chip = node->server().chip();
      const hw::Eop eop = node->server().eop();
      const Watt marginal =
          chip.power().core_dynamic(eop.vdd, eop.freq,
                                    vm.workload.activity) *
          static_cast<double>(vm.vcpus);
      const Watt projected = rack_watts[i / per_rack] + marginal;
      if (projected.value > config_.rack_power_cap.value) {
        allowed[i] = 0;
        power_limited = true;
      }
    }
    constraint.allowed = &allowed;
  }
  ComputeNode* target = nullptr;
  {
    telemetry::ScopedTimer timer(metrics().placement_wall_us);
    target = engine_->pick(vm, vm.requirements.critical, constraint);
  }
  record_decision(request.id, target, false);
  if (target == nullptr || !target->place_vm(vm)) {
    if (target != nullptr) {
      // The index promised capacity the node no longer has (stale
      // state, e.g. a crashed node re-offered): resync that leaf and
      // reject cleanly rather than touching the stale node further.
      engine_->node_changed(target);
    }
    ++stats_.rejected;
    if (target == nullptr && power_limited) ++stats_.rejected_for_power;
    return;
  }
  engine_->node_changed(target);
  ++stats_.accepted;
  ActiveVm active;
  active.request = request;
  active.node = target;
  active.departs_at = Seconds{request.arrival.value + request.lifetime.value};
  // A NaN departure time never compares due, so it never departs.
  if (!std::isnan(active.departs_at.value)) {
    departures_.push(Departure{active.departs_at.value, request.id});
  }
  if (active_.emplace(request.id, active).second) {
    monitor_.admit(request.id, vm.workload.activity, vm.memory_mb);
  }
  if (serve_) serve_->on_vm_placed(request, &target->server());
}

void Cloud::handle_departures() {
  // Every active VM has a heap entry at its departure time; entries of
  // VMs lost, or re-admitted under the same id, are stale and skipped.
  // The due VMs are handled in ascending id order.
  std::vector<std::uint64_t> done;
  while (!departures_.empty() && departures_.top().at <= now_.value) {
    const std::uint64_t id = departures_.top().id;
    departures_.pop();
    const auto it = active_.find(id);
    if (it != active_.end() && it->second.departs_at.value <= now_.value) {
      done.push_back(id);
    }
  }
  std::sort(done.begin(), done.end());
  done.erase(std::unique(done.begin(), done.end()), done.end());
  for (std::uint64_t id : done) {
    // A departing VM abandons any in-flight migration (the ticket's
    // destination reservation is released with the cancellation).
    orchestrator_.cancel_vm(id, now_);
    auto it = active_.find(id);
    it->second.node->remove_vm(id);
    engine_->node_changed(it->second.node);
    active_.erase(it);
    monitor_.forget(id);
    if (serve_) serve_->on_vm_removed(id);
    ++stats_.completed;
  }
}

void Cloud::mark_lost(std::uint64_t vm_id, bool node_crash) {
  monitor_.forget(vm_id);
  if (serve_) serve_->on_vm_removed(vm_id);
  auto it = active_.find(vm_id);
  if (it == active_.end()) return;
  if (node_crash) {
    ++stats_.lost_to_node_crash;
  } else {
    ++stats_.lost_to_errors;
  }
  if (it->second.request.sla != trace::SlaClass::kBestEffort) {
    ++stats_.sla_violations;
  }
  active_.erase(it);
}

void Cloud::account_node_crash(ComputeNode* node,
                               const std::vector<std::uint64_t>& lost,
                               bool injected) {
  ++stats_.node_crash_events;
  std::vector<std::pair<std::string, std::string>> tags{
      {"node", node->name()}};
  if (injected) tags.emplace_back("injected", "1");
  tags.emplace_back("vms_lost", std::to_string(lost.size()));
  telemetry::trace(now_, "cloud", "node_crash", std::move(tags));
  // Cancel-first: tickets touching the dead node fold before any
  // further control-plane work sees them.
  orchestrator_.on_node_down(node, now_);
  for (std::uint64_t id : lost) mark_lost(id, true);
}

void Cloud::tick_nodes(Seconds window) {
  monitor_.advance();
  for (std::size_t slot = 0; slot < nodes_.size(); ++slot) {
    const std::unique_ptr<ComputeNode>& node = nodes_[slot];
    const bool was_up = node->up();
    const ComputeNode::NodeTick result = node->tick(now_, window);
    const hv::TickReport& report = result.report;
    if (result.crashed || !result.vms_lost.empty() ||
        was_up != node->up()) {
      engine_->node_changed(node.get());
    }
    stats_.total_energy_kwh += report.energy.kwh();
    // Fine-grained VM monitoring: this tick's survivable-SDC hits,
    // attributed per VM.
    for (std::uint64_t id : report.vms_hit) monitor_.record_hit(id);
    if (result.crashed) {
      account_node_crash(node.get(), result.vms_lost, false);
    } else {
      for (std::uint64_t id : result.vms_lost) {
        // An SDC killed the VM in place; fold its migration if any.
        orchestrator_.cancel_vm(id, now_);
        mark_lost(id, false);
      }
    }
    // Repair completed this tick: clear the node's log history.
    if (!was_up && node->up()) predictor_.reset(slot);
    if (serve_) {
      // Fault-path dispatch stalls: a checkpoint restore pauses the
      // guest for the restore time, a survivable SDC hit costs a
      // shorter glitch. Both land at the window edge and gate the
      // VM's next dispatches — this is where EOP aggressiveness
      // (more hits, more restores) fattens the latency tail.
      for (std::uint64_t id : report.vms_restored) {
        serve_->add_stall(id, now_, serve::ServeLayer::kRestoreStall);
      }
      for (std::uint64_t id : report.vms_hit) {
        serve_->add_stall(id, now_, serve::ServeLayer::kHitStall);
      }
    }
  }
}

void Cloud::update_reliability() {
  for (std::size_t slot = 0; slot < nodes_.size(); ++slot) {
    nodes_[slot]->set_reliability(1.0 - predictor_.risk(slot, now_));
  }
}

void Cloud::proactive_evacuation() {
  if (!config_.proactive_migration) return;
  for (std::size_t slot = 0; slot < nodes_.size(); ++slot) {
    const std::unique_ptr<ComputeNode>& source = nodes_[slot];
    if (!source->up()) continue;
    if (!predictor_.should_evacuate(slot, now_)) continue;
    ++stats_.evacuations;
    telemetry::trace(
        now_, "cloud", "evacuation",
        {{"node", source->name()},
         {"resident_vms",
          std::to_string(source->hypervisor().vm_count())}});
    // The predictor expects this node to fail: drain it at crash
    // priority. The copies run asynchronously over the next ticks.
    evacuate_node(source.get(), MigrationPriority::kCrashEvacuation,
                  nullptr);
  }
}

int Cloud::evacuate_node(ComputeNode* source, MigrationPriority priority,
                         const std::vector<std::uint8_t>* allowed) {
  // Drain the resident VMs, most-susceptible-first (the monitor's
  // ranking: big, busy, already-hit VMs are the likeliest next victims,
  // so their tickets enter the FIFO queue first).
  std::vector<std::uint64_t> on_node;
  for (const auto& [id, vm] : source->hypervisor().vms()) {
    on_node.push_back(id);
  }
  // The monitor tracks exactly the active VMs, so the ranking leaves
  // out only residents the control plane does not own.
  int submitted = 0;
  for (std::uint64_t id : monitor_.ranked_by_susceptibility(on_node)) {
    if (!active_.contains(id)) continue;
    if (orchestrator_.in_flight(id)) continue;  // already on its way
    const hv::Vm vm = source->hypervisor().vms().at(id);
    // The sinking node is excluded by constraint rather than by
    // filtering the fleet vector, so both engines see identical slot
    // numbering and stay bit-identical. Reservations taken by earlier
    // tickets are visible through free_vcpus/free_memory, so one storm
    // cannot over-commit a destination.
    PlacementConstraint constraint;
    constraint.exclude = source;
    constraint.allowed = allowed;
    ComputeNode* target =
        engine_->pick(vm, vm.requirements.critical, constraint);
    record_decision(id, target, true);
    if (target == nullptr ||
        !orchestrator_.submit(id, source, target, vm.vcpus, vm.memory_mb,
                              priority, now_, rack_of(source),
                              rack_of(target))) {
      ++stats_.migration_failures;
      continue;  // nowhere to go; VM rides out the risk in place
    }
    ++submitted;
  }
  return submitted;
}

void Cloud::inject_rack_power_loss(int node_index) {
  if (node_index < 0 || node_index >= static_cast<int>(nodes_.size())) {
    return;
  }
  // The rack is the run of slots [first, last). Every node in it is
  // about to lose power together, so none is an acceptable destination.
  const std::size_t per_rack = rack_size();
  const std::size_t rack = static_cast<std::size_t>(node_index) / per_rack;
  const std::size_t first = rack * per_rack;
  const std::size_t last = std::min(nodes_.size(), first + per_rack);
  std::vector<std::uint8_t> allowed(nodes_.size(), 1);
  std::size_t vms = 0;
  for (std::size_t i = first; i < last; ++i) {
    allowed[i] = 0;
    vms += nodes_[i]->hypervisor().vm_count();
  }
  telemetry::trace(now_, "cloud", "rack_evacuation",
                   {{"rack", std::to_string(rack)},
                    {"resident_vms", std::to_string(vms)}});
  for (std::size_t i = first; i < last; ++i) {
    if (!nodes_[i]->up()) continue;
    evacuate_node(nodes_[i].get(), MigrationPriority::kCrashEvacuation,
                  &allowed);
  }
}

void Cloud::inject_eop_retreat(int node_index) {
  if (node_index < 0 || node_index >= static_cast<int>(nodes_.size())) {
    return;
  }
  ComputeNode* node = nodes_[static_cast<std::size_t>(node_index)].get();
  if (!node->up()) return;
  // Back off to the nominal operating point first — the margin is
  // suspect right now — then drain the VMs at retreat priority.
  const auto& spec = node->server().spec();
  hw::Eop nominal;
  nominal.vdd = spec.chip.vdd_nominal;
  nominal.freq = spec.chip.freq_nominal;
  nominal.refresh = spec.dimm.nominal_refresh;
  if (!(nominal == node->server().eop())) {
    node->hypervisor().apply_eop(nominal);
  }
  telemetry::trace(now_, "cloud", "eop_retreat",
                   {{"node", node->name()},
                    {"resident_vms",
                     std::to_string(node->hypervisor().vm_count())}});
  evacuate_node(node, MigrationPriority::kEopRetreat, nullptr);
}

void Cloud::inject_request_burst(Seconds at, std::uint64_t count) {
  if (!serve_) return;
  serve_->inject_burst(at, count);
  telemetry::trace(now_, "cloud", "request_burst",
                   {{"at", std::to_string(at.value)},
                    {"requests", std::to_string(count)}});
}

void Cloud::run(const std::vector<trace::VmRequest>& requests,
                Seconds horizon) {
  std::size_t next_arrival = 0;
  // Arrival order, ties broken by id; stable, so requests that share
  // both keep their given order.
  std::vector<trace::VmRequest> sorted = requests;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const trace::VmRequest& a, const trace::VmRequest& b) {
                     if (a.arrival.value != b.arrival.value) {
                       return a.arrival.value < b.arrival.value;
                     }
                     return a.id < b.id;
                   });

  while (now_.value < horizon.value) {
    const Seconds window = config_.tick;
    now_ += window;

    while (next_arrival < sorted.size() &&
           sorted[next_arrival].arrival.value <= now_.value) {
      handle_arrival(sorted[next_arrival]);
      ++next_arrival;
    }

    handle_departures();
    if (config_.sla_eop_backoff_percent > 0.0) {
      for (auto& node : nodes_) {
        node->apply_sla_aware_eop(config_.sla_eop_backoff_percent);
      }
    }
    tick_nodes(window);
    update_reliability();
    // One fleet-wide metrics refresh per control-loop tick: reliability
    // and utilization just moved on every node, so the indexed engine
    // re-sorts its weight ordering here (and only here).
    engine_->refresh_weights();
    // Crash cancellations from tick_nodes landed before any timer fires
    // (cancel-first), so a cutover racing a crash resolves the same way
    // regardless of batching.
    orchestrator_.advance(now_);
    proactive_evacuation();
    // Requests are generated against the post-tick fleet state, so a
    // stall recorded at `now_` gates dispatches from this window on.
    if (serve_) serve_->advance(now_, window);
  }

  double availability = 0.0;
  for (const auto& node : nodes_) {
    availability += node->metrics().availability;
  }
  stats_.mean_node_availability =
      nodes_.empty() ? 1.0 : availability / static_cast<double>(nodes_.size());
  publish_books();
}

void Cloud::publish_books() {
  CloudMetrics& m = metrics();
  const CloudStats& was = published_;
  m.submitted.add(stats_.submitted - was.submitted);
  m.accepted.add(stats_.accepted - was.accepted);
  m.rejected.add(stats_.rejected - was.rejected);
  m.rejected_for_power.add(stats_.rejected_for_power - was.rejected_for_power);
  m.completed.add(stats_.completed - was.completed);
  m.lost.add(stats_.lost_to_errors + stats_.lost_to_node_crash -
             was.lost_to_errors - was.lost_to_node_crash);
  m.evacuations.add(stats_.evacuations - was.evacuations);
  m.migration_failures.add(stats_.migration_failures - was.migration_failures);
  m.node_crashes.add(stats_.node_crash_events - was.node_crash_events);
  m.sla_violations.add(stats_.sla_violations - was.sla_violations);
  m.energy_kwh.set(stats_.total_energy_kwh);
  published_ = stats_;

  const MigrationStats& mig = orchestrator_.stats();
  const MigrationStats& mig_was = published_migrations_;
  m.mig_submitted.add(mig.submitted - mig_was.submitted);
  m.mig_started.add(mig.started - mig_was.started);
  m.mig_completed.add(mig.completed - mig_was.completed);
  m.mig_cancelled.add(mig.cancelled - mig_was.cancelled);
  m.mig_postcopy_fallbacks.add(mig.postcopy_fallbacks -
                               mig_was.postcopy_fallbacks);
  published_migrations_ = mig;
  m.mig_active.set(static_cast<double>(orchestrator_.active_count()));
  m.mig_queued.set(static_cast<double>(orchestrator_.queued_count()));
  m.mig_link_utilization.set(orchestrator_.link_utilization());
  m.mig_transferred_mb.set(mig.transferred_mb);

  // Node books only grow (HealthLog::clear keeps the totals; isolation
  // is never undone): a fleet sum grows by what the nodes booked since.
  std::array<std::uint64_t, kNodeBooks> sums{};
  for (const auto& node : nodes_) {
    hv::Hypervisor& hv = node->hypervisor();
    const hv::HvStats& s = hv.stats();
    const daemons::HealthLog& log = hv.healthlog();
    std::size_t i = 0;
    // One monitoring vector per tick: `ticks` is also the vector book.
    for (const std::uint64_t book :
         {s.ticks, s.cache_ecc_masked, s.dram_ecc_masked, s.cpu_sdcs,
          s.dram_errors_relaxed, s.vm_kills, s.vm_restores, s.fatal_ticks,
          s.protection_saves, s.node_crashes,
          static_cast<std::uint64_t>(hv.retired_cores()),
          static_cast<std::uint64_t>(hv.isolated_channels()), s.ticks,
          log.total_correctable(), log.total_uncorrectable(),
          log.recharacterize_triggers()}) {
      sums[i++] += book;
    }
  }
  for (std::size_t i = 0; i < kNodeBooks; ++i) {
    m.node_books[i]->add(sums[i] - published_nodes_[i]);
  }
  published_nodes_ = sums;

  if (!serve_) return;
  ServeMetrics& sm = serve_metrics();
  const serve::ServeStats& sv = serve_->stats();
  const serve::ServeStats& sv_was = published_serve_;
  sm.generated.add(sv.generated - sv_was.generated);
  sm.completed.add(sv.completed - sv_was.completed);
  sm.dropped.add(sv.dropped_overload + sv.dropped_unroutable +
                 sv.dropped_lost - sv_was.dropped_overload -
                 sv_was.dropped_unroutable - sv_was.dropped_lost);
  sm.slo_violations.add(sv.slo_violations - sv_was.slo_violations);
  sm.stalls.add(sv.stalls - sv_was.stalls);
  sm.queue_depth.set(static_cast<double>(serve_->outstanding()));
  published_serve_ = sv;
}

}  // namespace uniserver::osk
