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
  constexpr int kRecords = static_cast<int>(3 * kRing);
  HealthLog::Config config;
  config.capacity = 10;
  HealthLog log(config);
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
  EXPECT_EQ(log.errors().size(), 10u);
  EXPECT_EQ(log.errors().front().timestamp.value,
            static_cast<double>(kRecords - 10));
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
  HealthLog::Config config;
  config.rate_window = Seconds{10.0};
  HealthLog log(config);
  for (int i = 0; i < 5; ++i) log.record_error(correctable_at(1.0 + i));
  EXPECT_NEAR(log.error_rate_per_s(Seconds{6.0}), 0.5, 1e-9);
  // Much later, the events left the window.
  EXPECT_NEAR(log.error_rate_per_s(Seconds{100.0}), 0.0, 1e-9);
}

TEST(HealthLog, ThresholdTriggersRecharacterizeOnce) {
  HealthLog::Config config;
  config.error_rate_threshold_per_s = 0.2;
  config.rate_window = Seconds{10.0};
  config.recharacterize_cooldown = Seconds{20.0};
  HealthLog log(config);
  int triggers = 0;
  log.subscribe_recharacterize([&triggers](Seconds) { ++triggers; });
  // 5 errors in 2 seconds: rate 0.5 > 0.2 -> one trigger (debounced).
  for (int i = 0; i < 5; ++i) {
    log.record_error(correctable_at(1.0 + 0.4 * i));
  }
  EXPECT_EQ(triggers, 1);
  // A burst a full window later re-triggers.
  for (int i = 0; i < 5; ++i) {
    log.record_error(correctable_at(30.0 + 0.4 * i));
  }
  EXPECT_EQ(triggers, 2);
}

TEST(HealthLog, UncorrectableDoesNotCountTowardCorrectableRate) {
  HealthLog::Config config;
  config.rate_window = Seconds{10.0};
  HealthLog log(config);
  for (int i = 0; i < 5; ++i) {
    log.record_error(ErrorEvent{Seconds{1.0 + i}, Component::kDram,
                                Severity::kUncorrectable, 0});
  }
  EXPECT_DOUBLE_EQ(log.error_rate_per_s(Seconds{6.0}), 0.0);
}

// The windowed count as a reverse scan over the logfile: walk back from
// the newest event and stop at the first one stamped before the cutoff.
double reverse_scan_rate(const HealthLog& log, double now, double window) {
  if (window <= 0.0) return 0.0;
  const double cutoff = now - window;
  std::size_t count = 0;
  for (auto it = log.errors().rbegin(); it != log.errors().rend(); ++it) {
    if (it->timestamp.value < cutoff) break;
    if (it->severity == Severity::kCorrectable) ++count;
  }
  return static_cast<double>(count) / window;
}

TEST(HealthLog, WindowedRateMatchesReverseScan) {
  // Out-of-order and repeated stamps, a logfile short enough to evict,
  // daemon restarts, and the odd NaN stamp (never ends the window).
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng rng(seed);
    HealthLog::Config config;
    config.capacity = 1 + rng.uniform_u64(48);
    config.rate_window = Seconds{rng.uniform(1.0, 20.0)};
    config.recharacterize_cooldown = Seconds{0.0};
    HealthLog log(config);
    double clock = 0.0;
    for (int step = 0; step < 3000; ++step) {
      const double u = rng.uniform();
      if (u < 0.002) {
        log.clear();
        continue;
      }
      if (u < 0.6) {
        clock += rng.uniform(0.0, 2.0);  // forward in time
      } else if (u < 0.8) {
        clock -= rng.uniform(0.0, 15.0);  // a late, out-of-order event
      }  // otherwise: same stamp as the previous event
      double stamp = std::round(clock * 4.0) / 4.0;
      if (rng.bernoulli(0.01)) stamp = std::numeric_limits<double>::quiet_NaN();
      const double kind = rng.uniform();
      const Severity severity = kind < 0.7   ? Severity::kCorrectable
                                : kind < 0.9 ? Severity::kUncorrectable
                                             : Severity::kCrash;
      log.record_error(ErrorEvent{Seconds{stamp}, Component::kDram,
                                  severity, 0});
      for (int q = 0; q < 4; ++q) {
        const double now = clock + rng.uniform(-25.0, 25.0);
        ASSERT_EQ(log.error_rate_per_s(Seconds{now}),
                  reverse_scan_rate(log, now, config.rate_window.value))
            << "seed " << seed << " step " << step << " now " << now;
      }
    }
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
