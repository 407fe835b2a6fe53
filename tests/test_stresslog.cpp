#include "daemons/stresslog.h"

#include <gtest/gtest.h>

#include "hwmodel/chip_spec.h"
#include "stress/profiles.h"

namespace uniserver::daemons {
namespace {

using namespace uniserver::literals;

hw::NodeSpec node_spec() {
  hw::NodeSpec spec;
  spec.chip = hw::arm_soc_spec();
  return spec;
}

TEST(StressLog, CycleProducesPointPerFrequency) {
  hw::ServerNode node(node_spec(), 11);
  StressLog stresslog(stress::ShmooConfig{.runs = 1}, 11);
  StressTargetParams params = default_stress_params(node);
  const SafeMargins margins =
      stresslog.run_cycle(node, params, Seconds{0.0});
  ASSERT_EQ(margins.points.size(), params.freqs.size());
  EXPECT_EQ(stresslog.cycles(), 1);
  for (std::size_t i = 0; i < margins.points.size(); ++i) {
    EXPECT_DOUBLE_EQ(margins.points[i].freq.value, params.freqs[i].value);
  }
}

TEST(StressLog, GuardBandIsApplied) {
  hw::ServerNode node(node_spec(), 11);
  StressLog stresslog(stress::ShmooConfig{.runs = 1}, 11);
  StressTargetParams params = default_stress_params(node);
  params.guard_percent = 2.5;
  const SafeMargins margins =
      stresslog.run_cycle(node, params, Seconds{0.0});
  for (const auto& point : margins.points) {
    EXPECT_NEAR(point.safe_offset_percent,
                point.crash_offset_percent - 2.5, 1e-9);
    EXPECT_GT(point.safe_vdd.value,
              hw::apply_undervolt_percent(node.spec().chip.vdd_nominal,
                                          point.crash_offset_percent)
                  .value);
  }
}

TEST(StressLog, LowerFrequencyYieldsDeeperSafeUndervolt) {
  hw::ServerNode node(node_spec(), 11);
  StressLog stresslog(stress::ShmooConfig{.runs = 1}, 11);
  const SafeMargins margins = stresslog.run_cycle(
      node, default_stress_params(node), Seconds{0.0});
  // The ARM part exposes cache ECC before crash, so the sweep provokes
  // correctable events, which the margins count.
  EXPECT_GT(margins.ecc_events_observed, 0u);
  ASSERT_GE(margins.points.size(), 2u);
  // Points are ordered nominal-first, descending frequency.
  for (std::size_t i = 1; i < margins.points.size(); ++i) {
    EXPECT_GT(margins.points[i].safe_offset_percent,
              margins.points[i - 1].safe_offset_percent);
  }
}

TEST(StressLog, SafeRefreshRespectsErrorBudget) {
  hw::ServerNode node(node_spec(), 11);
  StressTargetParams params = default_stress_params(node);
  const Seconds refresh = StressLog::safe_refresh_interval(node, params);
  EXPECT_GT(refresh.value, 0.064);  // relaxation is possible
  // The chosen interval meets the budget at the worst-case temperature.
  double expected = 0.0;
  for (int c = 0; c < node.memory().channels(); ++c) {
    for (int d = 0; d < node.spec().dimms_per_channel; ++d) {
      expected += node.memory().dimm(c, d).expected_errors(
          refresh, params.dram_worst_case_temp);
    }
  }
  EXPECT_LE(expected, params.max_expected_dram_errors);
}

TEST(StressLog, TighterBudgetPicksShorterRefresh) {
  hw::ServerNode node(node_spec(), 11);
  StressTargetParams loose = default_stress_params(node);
  loose.max_expected_dram_errors = 10.0;
  StressTargetParams tight = default_stress_params(node);
  tight.max_expected_dram_errors = 1e-6;
  EXPECT_GE(StressLog::safe_refresh_interval(node, loose).value,
            StressLog::safe_refresh_interval(node, tight).value);
}

TEST(StressLog, HotterWorstCaseShortensRefresh) {
  hw::ServerNode node(node_spec(), 11);
  StressTargetParams cool = default_stress_params(node);
  cool.dram_worst_case_temp = Celsius{30.0};
  StressTargetParams hot = default_stress_params(node);
  hot.dram_worst_case_temp = Celsius{70.0};
  EXPECT_GT(StressLog::safe_refresh_interval(node, cool).value,
            StressLog::safe_refresh_interval(node, hot).value);
}

TEST(SafeMarginsTest, PointForPicksNearestFrequency) {
  SafeMargins margins;
  margins.points.push_back({MegaHertz{2400.0}, Volt{0.85}, 12.0, 11.0});
  margins.points.push_back({MegaHertz{1200.0}, Volt{0.75}, 25.0, 24.0});
  EXPECT_DOUBLE_EQ(margins.point_for(MegaHertz{2300.0}).freq.value, 2400.0);
  EXPECT_DOUBLE_EQ(margins.point_for(MegaHertz{1000.0}).freq.value, 1200.0);
  EXPECT_DOUBLE_EQ(margins.point_for(MegaHertz{1700.0}).freq.value, 1200.0);
}

TEST(StressLog, DefaultParamsIncludeVirusesAndLadders) {
  hw::ServerNode node(node_spec(), 11);
  const StressTargetParams params = default_stress_params(node);
  EXPECT_EQ(params.suite.size(), 12u);  // 8 SPEC + 4 kernels
  EXPECT_EQ(params.freqs.size(), 4u);
  EXPECT_FALSE(params.refresh_candidates.empty());
  EXPECT_DOUBLE_EQ(params.refresh_candidates.front().value, 0.064);
}

}  // namespace
}  // namespace uniserver::daemons
