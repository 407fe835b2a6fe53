#include "sim/simulator.h"

#include <algorithm>
#include <utility>

#include "telemetry/telemetry.h"

namespace uniserver::sim {

namespace {
// Registered once, then every increment is one relaxed atomic op.
struct SimMetrics {
  telemetry::Counter& scheduled = telemetry::counter(
      "sim.events_scheduled", "events", "Events enqueued on the DES queue");
  telemetry::Counter& fired = telemetry::counter(
      "sim.events_fired", "events", "Event callbacks executed");
  telemetry::Counter& cancelled = telemetry::counter(
      "sim.events_cancelled", "events", "Pending events cancelled");
  telemetry::Gauge& pending = telemetry::gauge(
      "sim.pending_events", "events", "Events currently pending");
  telemetry::Gauge& now_s = telemetry::gauge(
      "sim.now_s", "s", "Simulated clock of the most recent Simulator");
};

SimMetrics& metrics() {
  static SimMetrics m;
  return m;
}
}  // namespace

EventId Simulator::enqueue(Seconds at, Callback cb) {
  const EventId id = next_id_++;
  queue_.push(Entry{at, next_seq_++, id});
  callbacks_.emplace(id, std::move(cb));
  metrics().scheduled.add();
  metrics().pending.set(static_cast<double>(callbacks_.size()));
  return id;
}

EventId Simulator::schedule_in(Seconds delay, Callback cb) {
  const Seconds at{now_.value + std::max(0.0, delay.value)};
  return enqueue(at, std::move(cb));
}

EventId Simulator::schedule_at(Seconds at, Callback cb) {
  return enqueue(Seconds{std::max(at.value, now_.value)}, std::move(cb));
}

EventId Simulator::schedule_every(Seconds period, Callback cb) {
  const EventId id =
      enqueue(Seconds{now_.value + period.value}, std::move(cb));
  periods_.emplace(id, period);
  return id;
}

bool Simulator::cancel(EventId id) {
  if (callbacks_.erase(id) == 0) return false;
  periods_.erase(id);
  metrics().cancelled.add();
  metrics().pending.set(static_cast<double>(callbacks_.size()));
  return true;
}

void Simulator::fire(const Entry& entry) {
  auto it = callbacks_.find(entry.id);
  if (it == callbacks_.end()) return;  // cancelled
  Callback cb = std::move(it->second);
  const auto period = periods_.find(entry.id);
  const bool periodic = period != periods_.end();
  if (periodic) {
    // Re-arm under the same id so cancel(id) keeps working. The series
    // keeps its slot in callbacks_ while its callback runs, and gets the
    // callback back afterwards unless the callback cancelled the series.
    queue_.push(Entry{Seconds{now_.value + period->second.value},
                      next_seq_++, entry.id});
  } else {
    callbacks_.erase(it);
  }
  metrics().fired.add();
  metrics().now_s.set(now_.value);
  metrics().pending.set(static_cast<double>(callbacks_.size()));
  cb();
  if (!periodic) return;
  // The callback may have scheduled events, so look the slot up again.
  const auto slot = callbacks_.find(entry.id);
  if (slot != callbacks_.end()) slot->second = std::move(cb);
}

bool Simulator::step() {
  while (!queue_.empty()) {
    Entry entry = queue_.top();
    queue_.pop();
    if (!callbacks_.contains(entry.id)) continue;  // cancelled
    now_ = entry.at;
    fire(entry);
    return true;
  }
  return false;
}

std::size_t Simulator::run(std::size_t limit) {
  std::size_t executed = 0;
  while (executed < limit && step()) ++executed;
  return executed;
}

std::size_t Simulator::run_until(Seconds until) {
  std::size_t executed = 0;
  while (!queue_.empty()) {
    Entry entry = queue_.top();
    if (!callbacks_.contains(entry.id)) {  // cancelled
      queue_.pop();
      continue;
    }
    if (entry.at.value > until.value) break;
    queue_.pop();
    now_ = entry.at;
    fire(entry);
    ++executed;
  }
  now_ = Seconds{std::max(now_.value, until.value)};
  return executed;
}

std::size_t Simulator::pending() const { return callbacks_.size(); }

}  // namespace uniserver::sim
