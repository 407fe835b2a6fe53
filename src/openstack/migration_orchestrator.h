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
// cancel/advance call sequence. Internal messages are ordered by
// (time, sequence number) exactly like the DES, consume no randomness,
// and the queue drains in (priority, submit order). Crash
// cancellations are processed before timer messages of the same
// control-loop step (cancel-first semantics), so a cutover racing a
// crash resolves identically for any `--jobs`. See docs/MIGRATION.md.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <set>
#include <vector>

#include "common/annotations.h"
#include "common/units.h"
#include "openstack/migration.h"
#include "openstack/node.h"

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
  /// Submit order: the FIFO tie-break inside a priority class.
  std::uint64_t submit_seq{0};
  /// Sequence number of the ticket's one live timer message; only
  /// schedule() writes it. A queued ticket has no timer yet, so it
  /// starts at `submit_seq`, which no message carries.
  std::uint64_t timer_seq{submit_seq};
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
    /// `post_copy` marks the early post-copy ownership switch. Return
    /// false if the move is impossible (capacity changed under the
    /// reservation) — the ticket is then cancelled.
    std::function<bool(const MigrationTicket&, bool post_copy)> commit;
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

  /// Processes every internal message with time <= now: round
  /// completions, convergence checks, cutovers, drains, queue admits.
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
  struct Message {
    double at{0.0};
    std::uint64_t seq{0};
    std::uint64_t vm_id{0};
    bool operator>(const Message& other) const {
      if (at != other.at) return at > other.at;
      return seq > other.seq;
    }
  };

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
  /// Pending timer messages in (time, seq) order. Pushed only by
  /// schedule(); uniserver-race enforces both that and the
  /// single-threaded discipline the annotations document. A message
  /// whose seq is not its ticket's `timer_seq` is stale and dropped.
  std::priority_queue<Message, std::vector<Message>, std::greater<>>
      messages_ US_NOT_GUARDED("single-threaded control plane");
  std::uint64_t next_seq_ US_NOT_GUARDED("single-threaded control plane"){0};
  MigrationStats stats_;
};

}  // namespace uniserver::osk
