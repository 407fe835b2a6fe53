// Asynchronous live-migration control plane.
//
// PR-6 tentpole: migration is no longer a synchronous cost-model pass
// inside the cloud control loop. Each migration is an explicit state
// machine advanced by simulated time:
//
//   kQueued ──(link slots free)──▶ kPreCopy ──(converged)──▶ kStopCopy
//      │                             │  │                        │
//      │                             │  └──(rounds exhausted)──▶ kPostCopy
//      │                             │                            │
//      └────────── cancel ◀──────────┴──── cancel ────────────────┘
//                                          (source/dest crash,
//                                           departure, SDC death)
//
// Pre-copy rounds are driven by the dirty-page-rate model in
// MigrationModel: each round copies the pages the previous round
// dirtied. Once the projected stop-and-copy pause drops under
// `kDowntimeTarget` the migration cuts over (downtime accounted);
// when `kPrecopyRounds` rounds fail to converge it falls back to
// post-copy (immediate ownership switch, pages pulled over the link
// while the VM already runs on the destination).
//
// Concurrency is bounded by per-link management-bandwidth budgets: a
// rack's uplink carries floor(link_bandwidth / stream_bandwidth)
// concurrent streams, and an in-flight migration pins one slot on the
// source rack's link and one on the destination rack's. Everything
// else waits in a deterministic (priority, FIFO) queue — this is what
// makes a whole-rack evacuation order serialize realistically instead
// of completing for free.
//
// Determinism: the orchestrator is a pure function of the submit/
// cancel/advance call sequence. Each ticket's timer (round completion,
// pause, drain) is an event on the orchestrator's own sim::Simulator,
// so timers fire in (time, schedule order) like every other DES event
// and consume no randomness; cancelling a ticket cancels its timer.
// The queue drains in (priority, submit order). Crash cancellations
// are processed before the timers of the same control-loop step
// (cancel-first semantics), so a cutover racing a crash resolves
// identically for any `--jobs`. See docs/MIGRATION.md.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <tuple>

#include "common/units.h"
#include "openstack/migration.h"
#include "openstack/node.h"
#include "sim/simulator.h"

namespace uniserver::osk {

/// Lifecycle phase of one migration ticket.
enum class MigrationPhase {
  kQueued,    ///< waiting for link bandwidth
  kPreCopy,   ///< iterative pre-copy rounds, VM runs on the source
  kStopCopy,  ///< stop-and-copy pause (the accounted downtime)
  kPostCopy,  ///< VM already on the destination, pages draining
  kDone,      ///< cutover committed
  kCancelled, ///< abandoned (crash, departure, commit failure)
};

const char* to_string(MigrationPhase phase);

/// Dequeue order: lower value drains first, FIFO within a class.
enum class MigrationPriority {
  kCrashEvacuation = 0,  ///< rack power loss / imminent-failure drain
  kEopRetreat = 1,       ///< predicted-unsafe EOP retreat
};

/// One migration's full state, readable by oracles and tests.
struct MigrationTicket {
  std::uint64_t vm_id{0};
  ComputeNode* source{nullptr};
  ComputeNode* dest{nullptr};
  MigrationPriority priority{MigrationPriority::kEopRetreat};
  MigrationPhase phase{MigrationPhase::kQueued};
  /// Rack links the copy occupies once admitted.
  int source_rack{0};
  int dest_rack{0};
  /// Submit order (tickets submitted before this one): the FIFO
  /// tie-break inside a priority class.
  std::uint64_t submit_seq{0};
  /// The ticket's one pending timer; only schedule() writes it. A
  /// queued ticket has none yet.
  sim::EventId timer{0};
  /// Capacity held on `dest` from submit until cutover/cancel.
  int reserved_vcpus{0};
  double reserved_memory_mb{0.0};
  int round{0};                 ///< completed pre-copy rounds
  double copying_mb{0.0};       ///< size of the in-progress copy
  double transferred_mb{0.0};   ///< cumulative bytes moved
  Seconds submitted_at{Seconds{0.0}};
  Seconds started_at{Seconds{0.0}};   ///< left the queue
  Seconds finished_at{Seconds{0.0}};
  Seconds downtime{Seconds{0.0}};
  bool post_copy{false};
};

/// Cumulative orchestrator books (the migration-conservation oracle
/// checks submitted == completed + cancelled + queued + active).
struct MigrationStats {
  std::uint64_t submitted{0};
  std::uint64_t started{0};
  std::uint64_t completed{0};
  std::uint64_t cancelled{0};
  std::uint64_t postcopy_fallbacks{0};
  /// Completions that went through the post-copy fallback.
  std::uint64_t postcopy_completed{0};
  double transferred_mb{0.0};
  double downtime_s{0.0};
};

class MigrationOrchestrator {
 public:
  /// How a ticket left the in-flight set.
  enum class Outcome { kCompleted, kCancelled };

  struct Callbacks {
    /// Commit the cutover: move the VM's books from source to dest.
    /// The ticket's `post_copy` marks the early post-copy ownership
    /// switch. Return false if the move is impossible (capacity changed
    /// under the reservation) — the ticket is then cancelled.
    std::function<bool(const MigrationTicket&)> commit;
    /// A post-copy VM lost its source before the drain finished: its
    /// unpulled pages are gone and the VM (running on dest) dies.
    std::function<void(const MigrationTicket&)> lose_postcopy;
    /// Copy traffic hit the wire (per round): energy accounting.
    std::function<void(double mb)> copy_traffic;
    /// Ticket left the in-flight set. The orchestrator keeps its own
    /// books and traces; this only lets an observer see each outcome.
    std::function<void(const MigrationTicket&, Outcome)> finished;
    /// Destination capacity changed (reserve/unreserve): placement
    /// engines must resync their view of the node.
    std::function<void(ComputeNode*)> node_changed;
  };

  /// Concurrent streams one rack link carries.
  static constexpr int kSlotsPerLink =
      std::max(1, static_cast<int>(MigrationModel::kLinkBandwidthMbPerS /
                                   MigrationModel::kBandwidthMbPerS));

  MigrationOrchestrator(const MigrationModel& model, Callbacks callbacks);
  // Pending timers capture `this`.
  MigrationOrchestrator(const MigrationOrchestrator&) = delete;
  MigrationOrchestrator& operator=(const MigrationOrchestrator&) = delete;

  /// Enqueues a migration and reserves destination capacity. False if
  /// the VM is already in flight or the reservation does not fit.
  bool submit(std::uint64_t vm_id, ComputeNode* source, ComputeNode* dest,
              int vcpus, double memory_mb, MigrationPriority priority,
              Seconds now, int rack_of_source, int rack_of_dest);

  /// Whether a ticket for `vm_id` is queued or active.
  bool in_flight(std::uint64_t vm_id) const {
    return tickets_.contains(vm_id);
  }

  /// Cancels one VM's ticket (departure, SDC death). The VM itself is
  /// not touched — callers own its fate. No-op when not in flight.
  void cancel_vm(std::uint64_t vm_id, Seconds now);

  /// A node hard-failed: cancel every ticket touching it. Pre-copy
  /// tickets lose nothing the crash did not already take; post-copy
  /// tickets whose *source* died lose the VM (`lose_postcopy`).
  void on_node_down(ComputeNode* node, Seconds now);

  /// Fires every timer due at or before `now` (round completions,
  /// convergence checks, cutovers, drains), then admits queued tickets.
  void advance(Seconds now);

  const MigrationStats& stats() const { return stats_; }
  std::size_t queued_count() const { return queue_.size(); }
  std::size_t active_count() const {
    return tickets_.size() - queue_.size();
  }
  /// Fraction of link slots currently busy (0 when there are none).
  double link_utilization() const;
  /// In-flight tickets keyed by VM id (queued + active).
  const std::map<std::uint64_t, MigrationTicket>& tickets() const {
    return tickets_;
  }

 private:
  bool links_have_capacity(const MigrationTicket& t) const;
  void occupy_links(const MigrationTicket& t);
  void release_links(const MigrationTicket& t);
  void schedule(MigrationTicket& t, Seconds at);
  void start_ready(Seconds now);
  void start(MigrationTicket& t, Seconds now);
  void on_timer(MigrationTicket& t, Seconds now);
  void complete(MigrationTicket& t, Seconds now);
  void cancel(MigrationTicket& t, Seconds now, bool vm_lost);
  void drop_reservation(MigrationTicket& t);

  MigrationModel model_;
  Callbacks callbacks_;
  std::map<std::uint64_t, MigrationTicket> tickets_;
  /// Wait queue in (priority, submit seq, VM id) order.
  std::set<std::tuple<int, std::uint64_t, std::uint64_t>> queue_;
  /// Busy stream slots per rack link.
  std::map<int, int> busy_slots_;
  /// The orchestrator's only clock: one pending event per started
  /// ticket, set by schedule().
  sim::Simulator timers_;
  MigrationStats stats_;
};

}  // namespace uniserver::osk
