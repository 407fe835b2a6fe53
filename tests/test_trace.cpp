#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "trace/arrivals.h"
#include "trace/fleet.h"
#include "trace/ldbc.h"

namespace uniserver::trace {
namespace {

TEST(Ldbc, MemoryRampsToPlateau) {
  const LdbcWorkload workload(1);
  EXPECT_NEAR(workload.memory_mb(Seconds{0.0}), LdbcWorkload::kBaseMemoryMb,
              1.0);
  const double late =
      workload.memory_mb(Seconds{3.0 * LdbcWorkload::kWarmup.value});
  EXPECT_NEAR(late, LdbcWorkload::kPlateauMemoryMb,
              LdbcWorkload::kPlateauMemoryMb * LdbcWorkload::kFluctuation *
                  1.5);
  // Monotone-ish growth through warmup (sampled coarsely).
  double previous = 0.0;
  for (double t = 0.0; t <= LdbcWorkload::kWarmup.value * 0.8;
       t += LdbcWorkload::kWarmup.value / 8.0) {
    const double mb = workload.memory_mb(Seconds{t});
    EXPECT_GE(mb, previous * 0.98);
    previous = mb;
  }
}

TEST(Ldbc, DeterministicPerSeed) {
  const LdbcWorkload a(7);
  const LdbcWorkload b(7);
  const LdbcWorkload c(8);
  EXPECT_DOUBLE_EQ(a.memory_mb(Seconds{500.0}), b.memory_mb(Seconds{500.0}));
  EXPECT_NE(a.memory_mb(Seconds{500.0}), c.memory_mb(Seconds{500.0}));
}

TEST(Ldbc, SignatureIsLdbcProfile) {
  const LdbcWorkload workload(4);
  EXPECT_EQ(workload.signature().name, "ldbc-snb");
}

TEST(Arrivals, GeneratesSortedWithinHorizon) {
  ArrivalConfig config;
  config.arrivals_per_hour = 120.0;
  VmArrivalStream stream(config, 5);
  const auto requests = stream.generate(Seconds{3600.0});
  EXPECT_GT(requests.size(), 60u);
  EXPECT_LT(requests.size(), 200u);
  for (std::size_t i = 1; i < requests.size(); ++i) {
    EXPECT_GE(requests[i].arrival.value, requests[i - 1].arrival.value);
    EXPECT_LT(requests[i].arrival.value, 3600.0);
  }
}

TEST(Arrivals, IdsAreUniqueAndPositive) {
  VmArrivalStream stream(ArrivalConfig{}, 6);
  const auto requests = stream.generate(Seconds{24.0 * 3600.0});
  std::set<std::uint64_t> ids;
  for (const auto& request : requests) {
    EXPECT_GT(request.id, 0u);
    ids.insert(request.id);
  }
  EXPECT_EQ(ids.size(), requests.size());
}

TEST(Arrivals, SlaMixApproximatesConfig) {
  ArrivalConfig config;
  config.arrivals_per_hour = 1000.0;
  config.best_effort_share = 0.3;
  config.critical_share = 0.2;
  VmArrivalStream stream(config, 7);
  const auto requests = stream.generate(Seconds{24.0 * 3600.0});
  ASSERT_GT(requests.size(), 5000u);
  double best_effort = 0.0;
  double critical = 0.0;
  for (const auto& request : requests) {
    if (request.sla == SlaClass::kBestEffort) best_effort += 1.0;
    if (request.sla == SlaClass::kCritical) critical += 1.0;
  }
  const auto n = static_cast<double>(requests.size());
  EXPECT_NEAR(best_effort / n, 0.3, 0.03);
  EXPECT_NEAR(critical / n, 0.2, 0.03);
}

TEST(Arrivals, LifetimesAreExponentialWithConfiguredMean) {
  ArrivalConfig config;
  config.arrivals_per_hour = 2000.0;
  config.mean_lifetime = Seconds{1800.0};
  VmArrivalStream stream(config, 8);
  const auto requests = stream.generate(Seconds{12.0 * 3600.0});
  double total = 0.0;
  for (const auto& request : requests) total += request.lifetime.value;
  EXPECT_NEAR(total / static_cast<double>(requests.size()), 1800.0, 100.0);
}

TEST(Arrivals, NextAdvancesPastGivenTime) {
  VmArrivalStream stream(ArrivalConfig{}, 9);
  const VmRequest request = stream.next(Seconds{100.0});
  EXPECT_GT(request.arrival.value, 100.0);
}

TEST(Arrivals, FlavorsAreWellFormed) {
  VmArrivalStream stream(ArrivalConfig{}, 10);
  const auto requests = stream.generate(Seconds{24.0 * 3600.0});
  for (const auto& request : requests) {
    EXPECT_GE(request.vcpus, 1);
    EXPECT_LE(request.vcpus, 4);
    EXPECT_GE(request.memory_mb, 1024.0);
    EXPECT_FALSE(request.workload.name.empty());
  }
}

TEST(Arrivals, SlaNames) {
  EXPECT_STREQ(to_string(SlaClass::kBestEffort), "best-effort");
  EXPECT_STREQ(to_string(SlaClass::kCritical), "critical");
}

FleetTraceConfig small_fleet_trace() {
  FleetTraceConfig config;
  config.nodes = 64;
  config.vcpus_per_node = 8;
  config.vms = 5000;
  return config;
}

TEST(FleetTrace, EmitsExactCountWithDenseOrderedIds) {
  FleetTraceGenerator generator(small_fleet_trace(), 3);
  std::uint64_t expected_id = 0;
  double previous = 0.0;
  while (auto request = generator.next()) {
    EXPECT_EQ(request->id, ++expected_id);
    EXPECT_GE(request->arrival.value, previous);
    previous = request->arrival.value;
  }
  EXPECT_EQ(expected_id, small_fleet_trace().vms);
  EXPECT_EQ(generator.emitted(), small_fleet_trace().vms);
  // Exhausted streams stay exhausted.
  EXPECT_FALSE(generator.next().has_value());
}

TEST(FleetTrace, DeterministicPerSeedAndTakeMatchesNext) {
  const FleetTraceConfig config = small_fleet_trace();
  FleetTraceGenerator one_by_one(config, 7);
  FleetTraceGenerator batched(config, 7);
  const auto batch = batched.take(1000);
  ASSERT_EQ(batch.size(), 1000u);
  for (const auto& expected : batch) {
    const auto request = one_by_one.next();
    ASSERT_TRUE(request.has_value());
    EXPECT_EQ(request->id, expected.id);
    EXPECT_EQ(request->arrival.value, expected.arrival.value);
    EXPECT_EQ(request->lifetime.value, expected.lifetime.value);
    EXPECT_EQ(request->vcpus, expected.vcpus);
  }
  FleetTraceGenerator reseeded(config, 8);
  const auto other = reseeded.take(1);
  ASSERT_EQ(other.size(), 1u);
  EXPECT_NE(other[0].arrival.value, batch[0].arrival.value);
}

TEST(FleetTrace, DiurnalShapePeaksAtConfiguredHour) {
  FleetTraceConfig config = small_fleet_trace();
  config.vms = 20000;
  FleetTraceGenerator generator(config, 11);
  // Bucket arrivals within the nominal day by hour; the peak hour must
  // see several times the trough-hour traffic.
  std::vector<int> per_hour(24, 0);
  while (auto request = generator.next()) {
    const double day_s = std::fmod(request->arrival.value, 86400.0);
    ++per_hour[static_cast<std::size_t>(day_s / 3600.0) % 24];
  }
  const int peak = per_hour[static_cast<std::size_t>(config.peak_hour)];
  const int trough =
      per_hour[(static_cast<std::size_t>(config.peak_hour) + 12) % 24];
  EXPECT_GT(peak, trough * 3);
}

TEST(FleetTrace, DerivedLifetimeTargetsSteadyStateUtilization) {
  // Little's law sizing: offered vCPU load ~= target share of fleet
  // capacity. Check the derived parameters rather than simulating.
  const FleetTraceConfig config = small_fleet_trace();
  FleetTraceGenerator generator(config, 5);
  const ArrivalConfig& base = generator.derived_base();
  EXPECT_GT(base.arrivals_per_hour, 0.0);
  EXPECT_GT(base.mean_lifetime.value, 0.0);
  const double mean_vcpus = 0.5 * 1.0 + 0.3 * 2.0 + 0.2 * 4.0;
  const double offered_vcpus = (base.arrivals_per_hour / 3600.0) *
                               base.mean_lifetime.value * mean_vcpus;
  const double fleet_vcpus =
      static_cast<double>(config.nodes * config.vcpus_per_node);
  EXPECT_NEAR(offered_vcpus / fleet_vcpus,
              FleetTraceGenerator::kTargetUtilization, 0.05);
  EXPECT_DOUBLE_EQ(generator.horizon().value, config.days * 86400.0);
}

}  // namespace
}  // namespace uniserver::trace
