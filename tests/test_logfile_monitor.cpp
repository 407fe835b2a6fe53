// Tests of the HealthLog logfile format and the fine-grained VM monitor.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <vector>

#include "common/rng.h"

#include "daemons/logfile.h"
#include "openstack/monitor.h"

namespace uniserver {
namespace {

using namespace uniserver::literals;

daemons::InfoVector sample_vector() {
  daemons::InfoVector vector;
  vector.timestamp = Seconds{12.5};
  vector.eop.vdd = Volt{0.8215};
  vector.eop.freq = MegaHertz{2040.0};
  vector.eop.refresh = 1500_ms;
  vector.sensors.package_power = Watt{21.375};
  vector.sensors.memory_power = Watt{10.5};
  vector.sensors.temperature = Celsius{47.25};
  vector.ipc = 1.3;
  vector.utilization = 0.75;
  vector.correctable_errors = 3;
  vector.uncorrectable_errors = 1;
  vector.source = "healthlog";
  return vector;
}

TEST(Logfile, InfoVectorRoundTrips) {
  const auto original = sample_vector();
  const std::string line = daemons::serialize(original);
  EXPECT_EQ(line.rfind("IV ", 0), 0u);
  const auto parsed = daemons::parse_info_vector(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_NEAR(parsed->timestamp.value, 12.5, 1e-3);
  EXPECT_NEAR(parsed->eop.vdd.value, 0.8215, 1e-4);
  EXPECT_NEAR(parsed->eop.freq.value, 2040.0, 0.1);
  EXPECT_NEAR(parsed->eop.refresh.value, 1.5, 1e-4);
  EXPECT_NEAR(parsed->sensors.package_power.value, 21.375, 1e-3);
  EXPECT_NEAR(parsed->ipc, 1.3, 1e-3);
  EXPECT_EQ(parsed->correctable_errors, 3u);
  EXPECT_EQ(parsed->uncorrectable_errors, 1u);
  EXPECT_EQ(parsed->source, "healthlog");
}

TEST(Logfile, ErrorEventRoundTrips) {
  daemons::ErrorEvent event{Seconds{99.0}, daemons::Component::kCache,
                            daemons::Severity::kUncorrectable, 3};
  const auto parsed = daemons::parse_error_event(daemons::serialize(event));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_NEAR(parsed->timestamp.value, 99.0, 1e-3);
  EXPECT_EQ(parsed->component, daemons::Component::kCache);
  EXPECT_EQ(parsed->severity, daemons::Severity::kUncorrectable);
  EXPECT_EQ(parsed->unit, 3);
}

TEST(Logfile, RejectsGarbage) {
  EXPECT_FALSE(daemons::parse_info_vector("EE t=1.0").has_value());
  EXPECT_FALSE(daemons::parse_info_vector("nonsense").has_value());
  EXPECT_FALSE(daemons::parse_info_vector("IV novalue").has_value());
  EXPECT_FALSE(daemons::parse_error_event("EE t=1.0 comp=gpu sev=crash")
                   .has_value());
  EXPECT_FALSE(daemons::parse_error_event("IV t=1.0").has_value());
}

TEST(Logfile, DumpAndLoadRoundTripsWholeLog) {
  daemons::HealthLog log;
  for (int i = 0; i < 5; ++i) {
    auto vector = sample_vector();
    vector.timestamp = Seconds{static_cast<double>(i)};
    log.record(vector);
  }
  log.record_error({Seconds{2.0}, daemons::Component::kDram,
                    daemons::Severity::kCorrectable, 0});
  log.record_error({Seconds{3.0}, daemons::Component::kCore,
                    daemons::Severity::kCrash, 5});

  std::stringstream file;
  daemons::dump_logfile(log, file);

  daemons::HealthLog replayed;
  EXPECT_EQ(daemons::load_logfile(file, replayed), 7u);
  EXPECT_EQ(replayed.vectors().size(), 5u);
  EXPECT_EQ(replayed.errors().size(), 2u);
  EXPECT_EQ(replayed.total_correctable(), 1u);
  EXPECT_EQ(replayed.total_uncorrectable(), 1u);
}

TEST(Logfile, LoadFiresSubscribers) {
  daemons::HealthLog source;
  source.record_error({Seconds{1.0}, daemons::Component::kDram,
                       daemons::Severity::kUncorrectable, 0});
  std::stringstream file;
  daemons::dump_logfile(source, file);

  daemons::HealthLog sink;
  int events = 0;
  sink.subscribe_errors([&events](const daemons::ErrorEvent&) { ++events; });
  daemons::load_logfile(file, sink);
  EXPECT_EQ(events, 1);
}

osk::VmSample sample_at(double t, double cpu, double mb,
                        std::uint64_t errors = 0) {
  return osk::VmSample{Seconds{t}, cpu, mb, errors};
}

TEST(VmMonitorTest, UsageAggregates) {
  osk::VmMonitor monitor;
  monitor.record(1, sample_at(0.0, 0.5, 2000.0));
  monitor.record(1, sample_at(60.0, 0.7, 4000.0, 2));
  const osk::VmUsage usage = monitor.usage(1);
  EXPECT_EQ(usage.samples, 2u);
  EXPECT_NEAR(usage.mean_cpu, 0.6, 1e-12);
  EXPECT_NEAR(usage.peak_cpu, 0.7, 1e-12);
  EXPECT_NEAR(usage.mean_memory_mb, 3000.0, 1e-9);
  EXPECT_NEAR(usage.peak_memory_mb, 4000.0, 1e-9);
  EXPECT_EQ(usage.total_errors, 2u);
}

TEST(VmMonitorTest, UnknownVmIsZero) {
  osk::VmMonitor monitor;
  EXPECT_EQ(monitor.usage(9).samples, 0u);
  EXPECT_DOUBLE_EQ(monitor.susceptibility(9), 0.0);
}

TEST(VmMonitorTest, WindowBoundsHistory) {
  osk::VmMonitor::Config config;
  config.window = 4;
  osk::VmMonitor monitor(config);
  for (int i = 0; i < 20; ++i) {
    monitor.record(1, sample_at(i, 1.0, 1000.0));
  }
  EXPECT_EQ(monitor.usage(1).samples, 4u);
}

TEST(VmMonitorTest, SusceptibilityRanksBigBusyErrorProneFirst) {
  osk::VmMonitor monitor;
  // VM 1: small, idle. VM 2: big and busy. VM 3: big, busy AND has
  // already absorbed errors.
  for (int i = 0; i < 10; ++i) {
    monitor.record(1, sample_at(i, 0.05, 512.0));
    monitor.record(2, sample_at(i, 0.9, 16384.0));
    monitor.record(3, sample_at(i, 0.9, 16384.0, i == 0 ? 5u : 0u));
  }
  const auto ranked = monitor.ranked_by_susceptibility();
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0], 3u);
  EXPECT_EQ(ranked[1], 2u);
  EXPECT_EQ(ranked[2], 1u);
  EXPECT_GT(monitor.susceptibility(3), monitor.susceptibility(2));
  EXPECT_LE(monitor.susceptibility(3), 1.0);
}

TEST(VmMonitorTest, CandidateRankingIsTheFullRankingFiltered) {
  Rng rng(23);
  osk::VmMonitor::Config config;
  config.window = 8;
  osk::VmMonitor monitor(config);
  // Coarse samples so many VMs tie on susceptibility (ties go to the
  // lower id in both rankings).
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t id = 1 + rng.uniform_u64(150);
    monitor.record(id, sample_at(i, 0.25 * static_cast<double>(
                                            rng.uniform_int(0, 4)),
                                 4096.0 * static_cast<double>(
                                              rng.uniform_int(0, 4)),
                                 rng.bernoulli(0.05) ? 1u : 0u));
  }
  const std::vector<std::uint64_t> full = monitor.ranked_by_susceptibility();
  for (int trial = 0; trial < 50; ++trial) {
    // Distinct candidates in any order, some never tracked.
    std::vector<std::uint64_t> candidates;
    for (std::uint64_t id = 1; id <= 200; ++id) {
      if (rng.bernoulli(0.2)) candidates.push_back(id);
    }
    std::shuffle(candidates.begin(), candidates.end(), rng);
    const std::set<std::uint64_t> wanted(candidates.begin(),
                                         candidates.end());
    std::vector<std::uint64_t> expected;
    for (std::uint64_t id : full) {
      if (wanted.contains(id)) expected.push_back(id);
    }
    EXPECT_EQ(monitor.ranked_by_susceptibility(candidates), expected);
  }
  EXPECT_TRUE(monitor.ranked_by_susceptibility({}).empty());
}

TEST(VmMonitorTest, ForgetDropsHistory) {
  osk::VmMonitor monitor;
  monitor.record(1, sample_at(0.0, 0.5, 2048.0));
  EXPECT_EQ(monitor.tracked_vms(), 1u);
  monitor.forget(1);
  EXPECT_EQ(monitor.tracked_vms(), 0u);
  EXPECT_EQ(monitor.usage(1).samples, 0u);
}

}  // namespace
}  // namespace uniserver
