#include "openstack/migration_orchestrator.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "telemetry/telemetry.h"

namespace uniserver::osk {

namespace {
struct MigMetrics {
  telemetry::Histogram& downtime_ms = telemetry::histogram(
      "cloud.mig.downtime_ms", 0.0, 1000.0, 100, "ms",
      "Per-migration VM pause (stop-and-copy or post-copy switch)");
  telemetry::Histogram& duration_s = telemetry::histogram(
      "cloud.mig.duration_s", 0.0, 600.0, 120, "s",
      "Per-migration wall time from link admission to completion");
  telemetry::Histogram& queue_wait_s = telemetry::histogram(
      "cloud.mig.queue_wait_s", 0.0, 600.0, 120, "s",
      "Time a ticket waited for link bandwidth before starting");
};

MigMetrics& mig_metrics() {
  static MigMetrics m;
  return m;
}
}  // namespace

const char* to_string(MigrationPhase phase) {
  switch (phase) {
    case MigrationPhase::kQueued:
      return "queued";
    case MigrationPhase::kPreCopy:
      return "pre-copy";
    case MigrationPhase::kStopCopy:
      return "stop-and-copy";
    case MigrationPhase::kPostCopy:
      return "post-copy";
    case MigrationPhase::kDone:
      return "done";
    case MigrationPhase::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

MigrationOrchestrator::MigrationOrchestrator(const MigrationModel& model,
                                             Callbacks callbacks)
    : model_(model), callbacks_(std::move(callbacks)) {
  mig_metrics();  // registers the histograms: a run without tickets has them
}

bool MigrationOrchestrator::links_have_capacity(
    const MigrationTicket& t) const {
  const auto busy = [this](int rack) {
    const auto it = busy_slots_.find(rack);
    return it == busy_slots_.end() ? 0 : it->second;
  };
  if (busy(t.source_rack) >= kSlotsPerLink) return false;
  if (t.source_rack != t.dest_rack && busy(t.dest_rack) >= kSlotsPerLink) {
    return false;
  }
  return true;
}

void MigrationOrchestrator::occupy_links(const MigrationTicket& t) {
  ++busy_slots_[t.source_rack];
  if (t.source_rack != t.dest_rack) ++busy_slots_[t.dest_rack];
}

void MigrationOrchestrator::release_links(const MigrationTicket& t) {
  --busy_slots_[t.source_rack];
  if (t.source_rack != t.dest_rack) --busy_slots_[t.dest_rack];
}

double MigrationOrchestrator::link_utilization() const {
  if (busy_slots_.empty()) return 0.0;
  int busy = 0;
  for (const auto& [rack, count] : busy_slots_) busy += count;
  const double total = static_cast<double>(busy_slots_.size()) *
                       static_cast<double>(kSlotsPerLink);
  return static_cast<double>(busy) / total;
}

bool MigrationOrchestrator::submit(std::uint64_t vm_id, ComputeNode* source,
                                   ComputeNode* dest, int vcpus,
                                   double memory_mb,
                                   MigrationPriority priority, Seconds now,
                                   int rack_of_source, int rack_of_dest) {
  if (source == nullptr || dest == nullptr || dest == source) return false;
  if (in_flight(vm_id)) return false;
  if (!dest->reserve(vcpus, memory_mb)) return false;
  if (callbacks_.node_changed) callbacks_.node_changed(dest);

  const MigrationTicket t{.vm_id = vm_id,
                          .source = source,
                          .dest = dest,
                          .priority = priority,
                          .source_rack = rack_of_source,
                          .dest_rack = rack_of_dest,
                          .submit_seq = next_seq_++,
                          .reserved_vcpus = vcpus,
                          .reserved_memory_mb = memory_mb,
                          .submitted_at = now};
  tickets_.emplace(vm_id, t);
  queue_.insert({static_cast<int>(priority), t.submit_seq, vm_id});
  ++stats_.submitted;
  telemetry::trace(now, "cloud", "migration_start",
                   {{"vm", std::to_string(vm_id)},
                    {"from", source->name()},
                    {"to", dest->name()}});
  start_ready(now);
  return true;
}

void MigrationOrchestrator::start_ready(Seconds now) {
  // Snapshot the queue: starting a ticket consumes link slots, so the
  // capacity check for later entries sees the updated occupancy. Blocked
  // tickets do not hold back later ones whose links are free (no
  // cross-link head-of-line blocking) — the scan order itself is what
  // keeps admissions deterministic.
  const std::vector<std::tuple<int, std::uint64_t, std::uint64_t>> order(
      queue_.begin(), queue_.end());
  for (const auto& entry : order) {
    const std::uint64_t vm_id = std::get<2>(entry);
    const auto it = tickets_.find(vm_id);
    if (it == tickets_.end()) continue;
    MigrationTicket& t = it->second;
    if (t.phase != MigrationPhase::kQueued) continue;
    if (!links_have_capacity(t)) continue;
    queue_.erase(entry);
    start(t, now);
  }
}

void MigrationOrchestrator::start(MigrationTicket& t, Seconds now) {
  occupy_links(t);
  t.phase = MigrationPhase::kPreCopy;
  t.started_at = now;
  t.round = 0;
  t.copying_mb = t.reserved_memory_mb;  // round 0 moves the full memory
  ++stats_.started;
  mig_metrics().queue_wait_s.record(now.value - t.submitted_at.value);
  schedule(t, Seconds{now.value +
                      t.copying_mb / MigrationModel::kBandwidthMbPerS});
}

void MigrationOrchestrator::schedule(MigrationTicket& t, Seconds at) {
  t.timer_seq = next_seq_++;
  messages_.push(Message{at.value, t.timer_seq, t.vm_id});
}

void MigrationOrchestrator::advance(Seconds now) {
  while (!messages_.empty() && messages_.top().at <= now.value) {
    const Message msg = messages_.top();
    messages_.pop();
    const auto it = tickets_.find(msg.vm_id);
    if (it == tickets_.end() || it->second.timer_seq != msg.seq) {
      continue;  // superseded by a later transition or a cancellation
    }
    on_timer(it->second, Seconds{msg.at});
  }
  start_ready(now);
}

void MigrationOrchestrator::on_timer(MigrationTicket& t, Seconds now) {
  const double bw = MigrationModel::kBandwidthMbPerS;
  switch (t.phase) {
    case MigrationPhase::kPreCopy: {
      // A pre-copy round finished: the copied bytes hit the wire and
      // the guest dirtied `dirty_rate` of them meanwhile.
      t.transferred_mb += t.copying_mb;
      stats_.transferred_mb += t.copying_mb;
      if (callbacks_.copy_traffic) callbacks_.copy_traffic(t.copying_mb);
      ++t.round;
      const double dirty =
          t.copying_mb * std::max(0.0, model_.dirty_rate);
      const double pause = dirty / bw;
      if (pause <= MigrationModel::kDowntimeTarget.value) {
        // Converged: stop the VM and move the remainder.
        t.phase = MigrationPhase::kStopCopy;
        t.copying_mb = dirty;
        t.downtime = Seconds{pause};
        schedule(t, Seconds{now.value + pause});
      } else if (t.round >= MigrationModel::kPrecopyRounds) {
        // Rounds exhausted without converging: post-copy fallback.
        // Ownership switches immediately; the dirty remainder drains
        // over the link while the VM already runs on the destination.
        t.post_copy = true;
        t.downtime = MigrationModel::kPostcopySwitch;
        ++stats_.postcopy_fallbacks;
        drop_reservation(t);
        if (!callbacks_.commit || !callbacks_.commit(t, true)) {
          cancel(t, now, false);
          return;
        }
        t.phase = MigrationPhase::kPostCopy;
        t.copying_mb = dirty;
        schedule(t, Seconds{now.value + MigrationModel::kPostcopySwitch.value +
                            pause});
      } else {
        t.copying_mb = dirty;
        schedule(t, Seconds{now.value + pause});
      }
      break;
    }
    case MigrationPhase::kStopCopy: {
      // The stop-and-copy pause ended: the remainder is across.
      t.transferred_mb += t.copying_mb;
      stats_.transferred_mb += t.copying_mb;
      if (callbacks_.copy_traffic) callbacks_.copy_traffic(t.copying_mb);
      t.copying_mb = 0.0;
      drop_reservation(t);
      if (!callbacks_.commit || !callbacks_.commit(t, false)) {
        cancel(t, now, false);
        return;
      }
      complete(t, now);
      break;
    }
    case MigrationPhase::kPostCopy: {
      // Demand-pull drain finished; the VM has its full working set.
      t.transferred_mb += t.copying_mb;
      stats_.transferred_mb += t.copying_mb;
      if (callbacks_.copy_traffic) callbacks_.copy_traffic(t.copying_mb);
      t.copying_mb = 0.0;
      complete(t, now);
      break;
    }
    default:
      break;
  }
}

void MigrationOrchestrator::complete(MigrationTicket& t, Seconds now) {
  t.phase = MigrationPhase::kDone;
  t.finished_at = now;
  release_links(t);
  ++stats_.completed;
  if (t.post_copy) ++stats_.postcopy_completed;
  stats_.downtime_s += t.downtime.value;
  mig_metrics().downtime_ms.record(t.downtime.value * 1000.0);
  mig_metrics().duration_s.record(now.value - t.started_at.value);
  telemetry::trace(now, "cloud", "migration",
                   {{"vm", std::to_string(t.vm_id)},
                    {"from", t.source->name()},
                    {"to", t.dest->name()}});
  if (callbacks_.finished) callbacks_.finished(t, Outcome::kCompleted);
  const std::uint64_t vm_id = t.vm_id;
  tickets_.erase(vm_id);
  start_ready(now);
}

void MigrationOrchestrator::drop_reservation(MigrationTicket& t) {
  if (t.reserved_vcpus == 0 && t.reserved_memory_mb == 0.0) return;
  t.dest->unreserve(t.reserved_vcpus, t.reserved_memory_mb);
  if (callbacks_.node_changed) callbacks_.node_changed(t.dest);
  t.reserved_vcpus = 0;
  t.reserved_memory_mb = 0.0;
}

void MigrationOrchestrator::cancel(MigrationTicket& t, Seconds now,
                                   bool vm_lost) {
  if (t.phase == MigrationPhase::kQueued) {
    queue_.erase({static_cast<int>(t.priority), t.submit_seq, t.vm_id});
  } else {
    release_links(t);
  }
  if (vm_lost && callbacks_.lose_postcopy) callbacks_.lose_postcopy(t);
  drop_reservation(t);
  const char* from_phase = to_string(t.phase);
  t.phase = MigrationPhase::kCancelled;
  t.finished_at = now;
  ++stats_.cancelled;
  telemetry::trace(now, "cloud", "migration_cancelled",
                   {{"vm", std::to_string(t.vm_id)},
                    {"from", t.source->name()},
                    {"to", t.dest->name()},
                    {"phase", from_phase}});
  if (callbacks_.finished) callbacks_.finished(t, Outcome::kCancelled);
  const std::uint64_t vm_id = t.vm_id;
  tickets_.erase(vm_id);
  start_ready(now);
}

void MigrationOrchestrator::cancel_vm(std::uint64_t vm_id, Seconds now) {
  const auto it = tickets_.find(vm_id);
  if (it == tickets_.end()) return;
  cancel(it->second, now, false);
}

void MigrationOrchestrator::on_node_down(ComputeNode* node, Seconds now) {
  std::vector<std::uint64_t> affected;
  for (const auto& [vm_id, t] : tickets_) {
    if (t.source == node || t.dest == node) affected.push_back(vm_id);
  }
  for (std::uint64_t vm_id : affected) {
    const auto it = tickets_.find(vm_id);
    if (it == tickets_.end()) continue;
    MigrationTicket& t = it->second;
    if (t.dest == node) {
      // The crash already cleared the node's reservation books; zero
      // the ticket's view so cancel does not unreserve a second time.
      t.reserved_vcpus = 0;
      t.reserved_memory_mb = 0.0;
    }
    // A post-copy VM runs on the destination but still demand-pulls
    // pages from the source: losing the source loses the VM.
    const bool vm_lost =
        t.phase == MigrationPhase::kPostCopy && t.source == node;
    cancel(t, now, vm_lost);
  }
}

}  // namespace uniserver::osk
