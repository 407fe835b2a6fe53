// Discrete-event simulation engine.
//
// The UniServer ecosystem models (daemons, hypervisor control loops,
// cloud orchestration) are driven by simulated time, never wall-clock
// time, so whole-system experiments are deterministic. Events are
// ordered by (time, sequence-number) which makes same-time events FIFO.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/units.h"

namespace uniserver::sim {

/// Identifies a scheduled event so it can be cancelled.
using EventId = std::uint64_t;

/// Event-queue simulator. Not thread-safe (the ecosystem is a
/// single-threaded model by design).
class Simulator {
 public:
  using Callback = std::function<void()>;

  /// Current simulated time.
  Seconds now() const { return now_; }

  /// Schedules `cb` to fire `delay` from now. Negative delays clamp to 0.
  EventId schedule_in(Seconds delay, Callback cb);

  /// Schedules `cb` at absolute time `at` (clamped to now).
  EventId schedule_at(Seconds at, Callback cb);

  /// Schedules `cb` every `period`, starting one period from now, until
  /// cancelled. Returns the id to cancel the whole series.
  EventId schedule_every(Seconds period, Callback cb);

  /// Cancels a pending event (or periodic series); returns true if it
  /// was still pending.
  bool cancel(EventId id);

  /// Runs the next event; returns false if the queue is empty.
  bool step();

  /// Runs events until the queue drains or `limit` events fire.
  /// Returns the number of events executed.
  std::size_t run(std::size_t limit = SIZE_MAX);

  /// Runs all events with time <= `until`, then advances now() to
  /// `until` even if the queue still holds later events.
  std::size_t run_until(Seconds until);

  /// Pending event count (cancelled-but-not-popped events excluded).
  std::size_t pending() const;

 private:
  struct Entry {
    Seconds at;
    std::uint64_t seq;
    EventId id;
    bool operator>(const Entry& other) const {
      if (at.value != other.at.value) return at.value > other.at.value;
      return seq > other.seq;
    }
  };

  EventId enqueue(Seconds at, Callback cb);
  void fire(const Entry& entry);

  Seconds now_{0.0};
  std::uint64_t next_seq_{0};
  EventId next_id_{1};
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  // Callbacks are stored out of line so Entry stays cheap to copy in the
  // heap. An id is pending exactly while it has a callback here: cancel
  // erases it, and the queue skips entries whose id has none.
  std::unordered_map<EventId, Callback> callbacks_;
  /// The period of each pending series; its callback is in callbacks_.
  std::unordered_map<EventId, Seconds> periods_;
};

}  // namespace uniserver::sim
