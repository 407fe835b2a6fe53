// HealthLog daemon (paper §3.C).
//
// Runtime monitor recording system metrics as information vectors in a
// bounded in-memory logfile. Provides the two services the paper
// specifies: (a) event-driven — subscribers are notified on error
// events; (b) on-demand — higher layers (Predictor, Hypervisor) query
// snapshots and windowed aggregates. The logfile keeps only what those
// services return: the newest vector in full for the snapshot, and for
// the aggregate a ring of the six fields it reads (stamp, the two error
// counts, package plus memory power, temperature, IPC; 48 B a vector,
// not 104). When the correctable-error rate
// crosses a threshold, the HealthLog raises the "re-characterize"
// signal that triggers a new StressLog cycle (§3: "if the number of
// errors rises above a certain threshold a new stress-test cycle may be
// triggered").
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "common/units.h"
#include "daemons/info_vector.h"

namespace uniserver::daemons {

class HealthLog {
 public:
  /// Monitoring vectors the aggregate covers, a separate and much
  /// smaller bound than the error log (64 is one hour of 60 s ticks).
  /// No decision reads the vector history; only aggregate() does.
  static constexpr std::size_t kVectorCapacity = 64;

  /// Error events retained. They feed the rate window, and through it
  /// the re-characterization trigger and the failure predictor.
  static constexpr std::size_t kErrorCapacity = 4096;
  static constexpr double kErrorRateThresholdPerS = 0.05;
  static constexpr Seconds kRateWindow{120.0};
  /// Minimum spacing between re-characterization triggers. A StressLog
  /// cycle takes the machine offline (paper §3.D), so the trigger must
  /// not fire on every window that stays hot.
  static constexpr Seconds kRecharacterizeCooldown{6.0 * 3600.0};

  /// Windowed aggregate returned by the on-demand service.
  struct Aggregate {
    std::size_t vectors{0};
    std::uint64_t correctable_errors{0};
    std::uint64_t uncorrectable_errors{0};
    std::size_t crash_events{0};
    double mean_power_w{0.0};
    double mean_temp_c{0.0};
    double mean_ipc{0.0};
  };

  using ErrorListener = std::function<void(const ErrorEvent&)>;
  using RecharacterizeListener = std::function<void(Seconds)>;

  /// Records a periodic monitoring vector.
  void record(const InfoVector& vector);

  /// Daemon restart: the bounded in-memory logfile (the vector ring, the
  /// latest vector and the error events) is lost and the
  /// re-characterization debounce resets.
  /// Subscribers stay wired and the lifetime totals survive — they
  /// model counters persisted outside the daemon process.
  void clear();

  /// Records an error event; fires event-driven subscribers and, when
  /// the windowed rate crosses the threshold, the re-characterize hook.
  void record_error(const ErrorEvent& event);

  /// Event-driven service: subscribe to every error event.
  void subscribe_errors(ErrorListener listener);

  /// Subscribe to threshold crossings (StressLog trigger).
  void subscribe_recharacterize(RecharacterizeListener listener);

  /// On-demand service: most recent vector (default-constructed if none).
  InfoVector latest() const;

  /// On-demand service: aggregate of the last kVectorCapacity vectors
  /// and the retained events stamped at or after `since`. Sums run
  /// oldest first.
  Aggregate aggregate(Seconds since) const;

  /// Correctable-error rate over the trailing window ending at `now`:
  /// the correctable events after the newest logged event stamped
  /// before `now - kRateWindow` (events need not be time-ordered).
  /// O(log n) in the logfile length.
  double error_rate_per_s(Seconds now) const;

  bool threshold_exceeded(Seconds now) const;

  const std::deque<ErrorEvent>& errors() const { return errors_; }
  /// Lifetime totals; crash events count as uncorrectable.
  std::uint64_t total_correctable() const { return total_correctable_; }
  std::uint64_t total_uncorrectable() const { return total_uncorrectable_; }
  std::uint64_t recharacterize_triggers() const { return triggers_; }

 private:
  /// What aggregate() reads of one vector.
  struct Sample {
    Seconds timestamp;
    std::uint64_t correctable_errors;
    std::uint64_t uncorrectable_errors;
    double power_w;  ///< package + memory power, added in that order
    double temp_c;
    double ipc;
  };

  // Ring of at most kVectorCapacity samples: it grows until full, then
  // each record overwrites the oldest, at oldest_sample_.
  std::vector<Sample> samples_;
  std::size_t oldest_sample_{0};
  InfoVector latest_{};
  std::deque<ErrorEvent> errors_;
  // Window-count index, evicted in step with errors_. Entry i of
  // correctable_through_ is total_correctable_ just after errors_[i]
  // was logged. suffix_minima_ holds (sequence, timestamp) of every
  // event stamped strictly earlier than all events logged after it;
  // its timestamps strictly increase. Sequence numbers count every
  // event ever logged.
  std::deque<std::uint64_t> correctable_through_;
  std::deque<std::pair<std::uint64_t, double>> suffix_minima_;
  std::uint64_t next_sequence_{0};
  std::vector<ErrorListener> error_listeners_;
  std::vector<RecharacterizeListener> recharacterize_listeners_;
  std::uint64_t total_correctable_{0};
  std::uint64_t total_uncorrectable_{0};
  std::uint64_t triggers_{0};
  /// Debounce: do not re-raise the trigger until the window moves on.
  Seconds last_trigger_{Seconds{-1e18}};
};

}  // namespace uniserver::daemons
