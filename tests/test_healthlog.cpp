#include "daemons/healthlog.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"

namespace uniserver::daemons {
namespace {

ErrorEvent correctable_at(double t, Component component = Component::kCache) {
  return ErrorEvent{Seconds{t}, component, Severity::kCorrectable, 0};
}

TEST(HealthLog, RecordsVectorsAndReturnsLatest) {
  HealthLog log;
  EXPECT_EQ(log.vectors().size(), 0u);
  InfoVector v1;
  v1.timestamp = Seconds{1.0};
  v1.ipc = 1.5;
  log.record(v1);
  InfoVector v2;
  v2.timestamp = Seconds{2.0};
  v2.ipc = 2.5;
  log.record(v2);
  EXPECT_EQ(log.vectors().size(), 2u);
  EXPECT_DOUBLE_EQ(log.latest().ipc, 2.5);
}

TEST(HealthLog, LatestOnEmptyIsDefault) {
  HealthLog log;
  EXPECT_DOUBLE_EQ(log.latest().ipc, 0.0);
}

TEST(HealthLog, EachLogIsBoundedByItsOwnCapacity) {
  constexpr std::size_t kRing = HealthLog::kVectorCapacity;
  constexpr std::size_t kCap = HealthLog::kErrorCapacity;
  constexpr int kRecords = static_cast<int>(kCap + 10);
  static_assert(kCap > 3 * kRing);
  HealthLog log;
  for (int i = 0; i < kRecords; ++i) {
    InfoVector v;
    v.timestamp = Seconds{static_cast<double>(i)};
    log.record(v);
    log.record_error(correctable_at(i));
    // The ring keeps the newest vectors, oldest first.
    const std::vector<InfoVector> kept = log.vectors();
    ASSERT_EQ(kept.size(), std::min<std::size_t>(i + 1, kRing))
        << "after " << i;
    for (std::size_t k = 0; k < kept.size(); ++k) {
      ASSERT_EQ(kept[k].timestamp.value,
                static_cast<double>(i + 1 - kept.size() + k));
    }
    ASSERT_EQ(log.latest().timestamp.value, static_cast<double>(i));
  }
  EXPECT_EQ(log.errors().size(), kCap);
  EXPECT_EQ(log.errors().front().timestamp.value,
            static_cast<double>(kRecords) - static_cast<double>(kCap));
  EXPECT_EQ(log.aggregate(Seconds{0.0}).vectors, kRing);
  // Totals keep counting past both bounds.
  EXPECT_EQ(log.total_correctable(), static_cast<std::uint64_t>(kRecords));
}

TEST(HealthLog, EventDrivenServiceNotifiesSubscribers) {
  HealthLog log;
  int events = 0;
  log.subscribe_errors([&events](const ErrorEvent&) { ++events; });
  log.record_error(correctable_at(1.0));
  log.record_error(correctable_at(2.0));
  EXPECT_EQ(events, 2);
}

TEST(HealthLog, SeverityTallies) {
  HealthLog log;
  log.record_error(correctable_at(1.0));
  log.record_error(
      ErrorEvent{Seconds{2.0}, Component::kDram, Severity::kUncorrectable, 0});
  log.record_error(
      ErrorEvent{Seconds{3.0}, Component::kCore, Severity::kCrash, 1});
  EXPECT_EQ(log.total_correctable(), 1u);
  EXPECT_EQ(log.total_uncorrectable(), 2u);
}

TEST(HealthLog, OnDemandAggregateFiltersByTime) {
  HealthLog log;
  for (int i = 0; i < 10; ++i) {
    InfoVector v;
    v.timestamp = Seconds{static_cast<double>(i)};
    v.correctable_errors = 1;
    v.ipc = 2.0;
    v.sensors.package_power = Watt{10.0};
    v.sensors.temperature = Celsius{50.0};
    log.record(v);
  }
  log.record_error(ErrorEvent{Seconds{8.0}, Component::kCore,
                              Severity::kCrash, 0});
  const auto all = log.aggregate(Seconds{0.0});
  EXPECT_EQ(all.vectors, 10u);
  EXPECT_EQ(all.correctable_errors, 10u);
  EXPECT_EQ(all.crash_events, 1u);
  EXPECT_NEAR(all.mean_power_w, 10.0, 1e-9);
  EXPECT_NEAR(all.mean_ipc, 2.0, 1e-9);
  const auto tail = log.aggregate(Seconds{5.0});
  EXPECT_EQ(tail.vectors, 5u);
}

TEST(HealthLog, ErrorRateUsesTrailingWindow) {
  static_assert(HealthLog::kRateWindow.value == 120.0);
  HealthLog log;
  for (int i = 0; i < 5; ++i) log.record_error(correctable_at(1.0 + i));
  EXPECT_DOUBLE_EQ(log.error_rate_per_s(Seconds{6.0}), 5.0 / 120.0);
  // At 125 s the window opens at 5 s: only the event stamped 5 s is
  // still inside it.
  EXPECT_DOUBLE_EQ(log.error_rate_per_s(Seconds{125.0}), 1.0 / 120.0);
  // Much later, the events left the window.
  EXPECT_DOUBLE_EQ(log.error_rate_per_s(Seconds{1000.0}), 0.0);
}

TEST(HealthLog, ThresholdTriggersRecharacterizeOnce) {
  static_assert(HealthLog::kErrorRateThresholdPerS == 0.05);
  static_assert(HealthLog::kRecharacterizeCooldown.value == 6.0 * 3600.0);
  HealthLog log;
  std::vector<double> triggers;
  log.subscribe_recharacterize(
      [&triggers](Seconds at) { triggers.push_back(at.value); });
  // Six events in the 120 s window are 0.05/s, at the threshold; the
  // seventh crosses it and triggers once (debounced).
  for (int i = 0; i < 6; ++i) {
    log.record_error(correctable_at(1.0 + 0.5 * i));
  }
  EXPECT_FALSE(log.threshold_exceeded(Seconds{3.5}));
  EXPECT_TRUE(triggers.empty());
  for (int i = 6; i < 10; ++i) {
    log.record_error(correctable_at(1.0 + 0.5 * i));
  }
  ASSERT_EQ(triggers.size(), 1u);
  EXPECT_EQ(triggers[0], 4.0);
  // A hot window that ends just inside the cooldown stays quiet...
  const double reopen =
      triggers[0] + HealthLog::kRecharacterizeCooldown.value;
  for (int i = 10; i > 0; --i) log.record_error(correctable_at(reopen - i));
  EXPECT_TRUE(log.threshold_exceeded(Seconds{reopen - 1.0}));
  EXPECT_EQ(triggers.size(), 1u);
  // ...and the first hot event once the cooldown has passed re-triggers.
  log.record_error(correctable_at(reopen));
  ASSERT_EQ(triggers.size(), 2u);
  EXPECT_EQ(triggers[1], reopen);
}

TEST(HealthLog, UncorrectableDoesNotCountTowardCorrectableRate) {
  HealthLog log;
  for (int i = 0; i < 5; ++i) {
    log.record_error(ErrorEvent{Seconds{1.0 + i}, Component::kDram,
                                Severity::kUncorrectable, 0});
  }
  EXPECT_DOUBLE_EQ(log.error_rate_per_s(Seconds{6.0}), 0.0);
}

struct ScanResult {
  double rate{0.0};
  bool whole_log{true};  // no retained event is stamped before the cutoff
};

// The windowed count as a reverse scan over the logfile: walk back from
// the newest event and stop at the first one stamped before the cutoff.
ScanResult reverse_scan_rate(const HealthLog& log, double now) {
  const double window = HealthLog::kRateWindow.value;
  const double cutoff = now - window;
  ScanResult result;
  std::size_t count = 0;
  for (auto it = log.errors().rbegin(); it != log.errors().rend(); ++it) {
    if (it->timestamp.value < cutoff) {
      result.whole_log = false;
      break;
    }
    if (it->severity == Severity::kCorrectable) ++count;
  }
  result.rate = static_cast<double>(count) / window;
  return result;
}

TEST(HealthLog, WindowedRateMatchesReverseScan) {
  // Out-of-order and repeated stamps, a logfile that fills past its
  // cap, a daemon restart, and the odd NaN stamp (never ends the
  // window). Steps are scaled to the 120 s window.
  constexpr std::size_t kCap = HealthLog::kErrorCapacity;
  constexpr int kRestartAt = static_cast<int>(kCap) + 200;
  constexpr int kSteps = kRestartAt + 1000;
  const double window = HealthLog::kRateWindow.value;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng rng(seed);
    HealthLog log;
    double clock = 0.0;
    std::size_t logged = 0;  // events since the last restart
    bool evicted = false;
    int whole_log = 0;  // queries whose window holds every event
    int part_log = 0;   // queries whose window opens inside the log
    for (int step = 0; step < kSteps; ++step) {
      if (step == kRestartAt) {
        log.clear();
        logged = 0;
        continue;
      }
      const double u = rng.uniform();
      if (u < 0.6) {
        clock += rng.uniform(0.0, 12.0);  // forward in time
      } else if (u < 0.8) {
        clock -= rng.uniform(0.0, 30.0);  // a late, out-of-order event
      }  // otherwise: same stamp as the previous event
      double stamp = std::round(clock * 4.0) / 4.0;
      if (rng.bernoulli(0.01)) stamp = std::numeric_limits<double>::quiet_NaN();
      const double kind = rng.uniform();
      const Severity severity = kind < 0.7   ? Severity::kCorrectable
                                : kind < 0.9 ? Severity::kUncorrectable
                                             : Severity::kCrash;
      log.record_error(ErrorEvent{Seconds{stamp}, Component::kDram,
                                  severity, 0});
      ++logged;
      ASSERT_EQ(log.errors().size(), std::min(logged, kCap));
      evicted = evicted || logged > kCap;
      for (int q = 0; q < 4; ++q) {
        const double now = clock + rng.uniform(-1.5 * window, 1.5 * window);
        const ScanResult scan = reverse_scan_rate(log, now);
        ASSERT_EQ(log.error_rate_per_s(Seconds{now}), scan.rate)
            << "seed " << seed << " step " << step << " now " << now;
        ++(scan.whole_log ? whole_log : part_log);
      }
    }
    EXPECT_TRUE(evicted) << "seed " << seed;
    EXPECT_GT(whole_log, 0) << "seed " << seed;
    EXPECT_GT(part_log, 0) << "seed " << seed;
  }
}

TEST(HealthLog, ComponentAndSeverityNames) {
  EXPECT_STREQ(to_string(Component::kCore), "core");
  EXPECT_STREQ(to_string(Component::kDram), "dram");
  EXPECT_STREQ(to_string(Severity::kCorrectable), "correctable");
  EXPECT_STREQ(to_string(Severity::kCrash), "crash");
}

}  // namespace
}  // namespace uniserver::daemons
