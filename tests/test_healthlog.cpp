#include "daemons/healthlog.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"

namespace uniserver::daemons {
namespace {

ErrorEvent correctable_at(double t, Component component = Component::kCache) {
  return ErrorEvent{Seconds{t}, component, Severity::kCorrectable, 0};
}

TEST(HealthLog, RecordsVectorsAndReturnsLatest) {
  HealthLog log;
  EXPECT_EQ(log.aggregate(Seconds{0.0}).vectors, 0u);
  InfoVector v1;
  v1.timestamp = Seconds{1.0};
  v1.ipc = 1.5;
  log.record(v1);
  InfoVector v2;
  v2.timestamp = Seconds{2.0};
  v2.ipc = 2.5;
  log.record(v2);
  EXPECT_EQ(log.aggregate(Seconds{0.0}).vectors, 2u);
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
    v.correctable_errors = static_cast<std::uint64_t>(i);
    log.record(v);
    log.record_error(correctable_at(i));
    // The ring keeps exactly the newest vectors, stamped oldest .. i:
    // their counts sum to the arithmetic series over those stamps, and
    // a window that opens one stamp later loses only the oldest.
    const std::size_t kept = std::min<std::size_t>(i + 1, kRing);
    const std::uint64_t oldest = static_cast<std::uint64_t>(i) + 1 - kept;
    const HealthLog::Aggregate all = log.aggregate(Seconds{0.0});
    ASSERT_EQ(all.vectors, kept) << "after " << i;
    ASSERT_EQ(all.correctable_errors,
              (oldest + static_cast<std::uint64_t>(i)) * kept / 2)
        << "after " << i;
    const Seconds from_oldest{static_cast<double>(oldest)};
    ASSERT_EQ(log.aggregate(from_oldest).vectors, kept) << "after " << i;
    const HealthLog::Aggregate later =
        log.aggregate(Seconds{from_oldest.value + 1.0});
    ASSERT_EQ(later.vectors, kept - 1) << "after " << i;
    ASSERT_EQ(later.correctable_errors, all.correctable_errors - oldest)
        << "after " << i;
    ASSERT_EQ(log.latest().timestamp.value, static_cast<double>(i));
  }
  EXPECT_EQ(log.errors().size(), kCap);
  EXPECT_EQ(log.errors().front().timestamp.value,
            static_cast<double>(kRecords) - static_cast<double>(kCap));
  EXPECT_EQ(log.aggregate(Seconds{0.0}).vectors, kRing);
  // Totals keep counting past both bounds.
  EXPECT_EQ(log.total_correctable(), static_cast<std::uint64_t>(kRecords));
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The logfile as a ring of full vectors, aggregated the way the
/// HealthLog defines it: oldest first, power as package plus memory.
struct ReferenceLog {
  std::deque<InfoVector> vectors;
  std::vector<ErrorEvent> errors;

  void record(const InfoVector& vector) {
    vectors.push_back(vector);
    if (vectors.size() > HealthLog::kVectorCapacity) vectors.pop_front();
  }

  HealthLog::Aggregate aggregate(Seconds since) const {
    HealthLog::Aggregate aggregate;
    double power = 0.0;
    double temp = 0.0;
    double ipc = 0.0;
    for (const InfoVector& vector : vectors) {
      if (vector.timestamp < since) continue;
      ++aggregate.vectors;
      aggregate.correctable_errors += vector.correctable_errors;
      aggregate.uncorrectable_errors += vector.uncorrectable_errors;
      power += vector.sensors.package_power.value +
               vector.sensors.memory_power.value;
      temp += vector.sensors.temperature.value;
      ipc += vector.ipc;
    }
    if (aggregate.vectors > 0) {
      const auto n = static_cast<double>(aggregate.vectors);
      aggregate.mean_power_w = power / n;
      aggregate.mean_temp_c = temp / n;
      aggregate.mean_ipc = ipc / n;
    }
    for (const ErrorEvent& event : errors) {
      if (event.timestamp < since) continue;
      if (event.severity == Severity::kCrash) ++aggregate.crash_events;
    }
    return aggregate;
  }
};

/// A value whose magnitude varies over decades, so a sum taken in any
/// other order than oldest first rounds differently.
double spread(Rng& rng, double scale) {
  return scale * rng.uniform(-0.1, 1.0) * std::exp2(rng.uniform(-20.0, 20.0));
}

InfoVector random_vector(Rng& rng, double& clock) {
  InfoVector v;
  const double u = rng.uniform();
  if (u < 0.7) {
    clock += rng.uniform(0.0, 90.0);
  } else if (u < 0.85) {
    clock -= rng.uniform(0.0, 200.0);  // out of order
  }  // otherwise: a repeated stamp
  v.timestamp = Seconds{std::round(clock)};
  if (rng.bernoulli(0.02)) {
    v.timestamp = Seconds{std::numeric_limits<double>::quiet_NaN()};
  }
  v.eop.vdd = Volt{rng.uniform(0.7, 1.0)};
  v.eop.freq = MegaHertz{rng.uniform(1000.0, 2400.0)};
  v.eop.refresh = Seconds{rng.uniform(0.064, 5.0)};
  v.sensors.package_power = Watt{spread(rng, 40.0)};
  v.sensors.memory_power = Watt{spread(rng, 8.0)};
  v.sensors.temperature = Celsius{spread(rng, 60.0)};
  v.sensors.vdd = v.eop.vdd;
  v.sensors.freq = v.eop.freq;
  v.ipc = spread(rng, 2.0);
  v.utilization = rng.uniform();
  v.correctable_errors = rng.bernoulli(0.3) ? rng.uniform_u64(1000) : 0;
  v.uncorrectable_errors = rng.bernoulli(0.1) ? rng.uniform_u64(5) : 0;
  return v;
}

void expect_same(const HealthLog::Aggregate& got,
                 const HealthLog::Aggregate& want) {
  EXPECT_EQ(got.vectors, want.vectors);
  EXPECT_EQ(got.correctable_errors, want.correctable_errors);
  EXPECT_EQ(got.uncorrectable_errors, want.uncorrectable_errors);
  EXPECT_EQ(got.crash_events, want.crash_events);
  EXPECT_EQ(bits(got.mean_power_w), bits(want.mean_power_w));
  EXPECT_EQ(bits(got.mean_temp_c), bits(want.mean_temp_c));
  EXPECT_EQ(bits(got.mean_ipc), bits(want.mean_ipc));
}

void expect_same(const InfoVector& got, const InfoVector& want) {
  EXPECT_EQ(bits(got.timestamp.value), bits(want.timestamp.value));
  EXPECT_EQ(got.eop, want.eop);
  EXPECT_EQ(bits(got.sensors.package_power.value),
            bits(want.sensors.package_power.value));
  EXPECT_EQ(bits(got.sensors.memory_power.value),
            bits(want.sensors.memory_power.value));
  EXPECT_EQ(bits(got.sensors.temperature.value),
            bits(want.sensors.temperature.value));
  EXPECT_EQ(bits(got.sensors.vdd.value), bits(want.sensors.vdd.value));
  EXPECT_EQ(bits(got.sensors.freq.value), bits(want.sensors.freq.value));
  EXPECT_EQ(bits(got.ipc), bits(want.ipc));
  EXPECT_EQ(bits(got.utilization), bits(want.utilization));
  EXPECT_EQ(got.correctable_errors, want.correctable_errors);
  EXPECT_EQ(got.uncorrectable_errors, want.uncorrectable_errors);
}

TEST(HealthLogDifferential, CompactRingMatchesFullVectorReference) {
  constexpr int kBeforeClear = 3 * static_cast<int>(HealthLog::kVectorCapacity);
  constexpr int kAfterClear = 2 * static_cast<int>(HealthLog::kVectorCapacity);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  int windows = 0;     // aggregates over part of the ring
  int full_rings = 0;  // records into a full ring
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    HealthLog log;
    ReferenceLog ref;
    double clock = 0.0;
    for (int step = 0; step < kBeforeClear + kAfterClear; ++step) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step));
      if (step == kBeforeClear) {
        log.clear();
        ref = ReferenceLog{};
        expect_same(log.latest(), InfoVector{});
        expect_same(log.aggregate(Seconds{-inf}), ref.aggregate(Seconds{-inf}));
      }
      if (ref.vectors.size() == HealthLog::kVectorCapacity) ++full_rings;
      const InfoVector v = random_vector(rng, clock);
      log.record(v);
      ref.record(v);
      if (rng.bernoulli(0.1)) {
        ErrorEvent crash;
        crash.timestamp = v.timestamp;
        crash.severity = Severity::kCrash;
        log.record_error(crash);
        ref.errors.push_back(crash);
      }
      expect_same(log.latest(), v);
      // Windows that open before, inside and after the ring, at a stamp
      // the ring holds, and the NaN bound that compares false.
      const double held =
          ref.vectors[rng.uniform_u64(ref.vectors.size())].timestamp.value;
      const double bounds[] = {-inf, 0.0, held, std::nextafter(held, inf),
                               clock - rng.uniform(0.0, 3000.0), clock + 1.0,
                               inf, nan};
      for (const double since : bounds) {
        const HealthLog::Aggregate want = ref.aggregate(Seconds{since});
        expect_same(log.aggregate(Seconds{since}), want);
        if (want.vectors > 0 && want.vectors < ref.vectors.size()) ++windows;
      }
      ASSERT_FALSE(HasFailure());
    }
  }
  EXPECT_GT(full_rings, 500);
  EXPECT_GT(windows, 2000);
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
