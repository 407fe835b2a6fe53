// Tests of RAIDR-style retention-aware refresh binning and the runtime
// EOP governor.
#include <gtest/gtest.h>

#include "core/governor.h"
#include "core/uniserver_node.h"
#include "hwmodel/chip_spec.h"
#include "hwmodel/raidr.h"
#include "stress/profiles.h"

namespace uniserver {
namespace {

using namespace uniserver::literals;

hw::DimmSpec pinned_dimm() {
  hw::DimmSpec spec;
  spec.dimm_scale_sigma = 0.0;
  return spec;
}

TEST(Raidr, WeakRowFractionMonotoneInInterval) {
  const hw::DimmModel dimm(pinned_dimm(), 1);
  const hw::RaidrBinning binning(dimm);
  const Celsius t{30.0};
  double previous = -1.0;
  for (const Seconds interval : {1_s, 2_s, 5_s, 10_s, 30_s}) {
    const double fraction = binning.weak_row_fraction(interval, t);
    EXPECT_GE(fraction, previous);
    EXPECT_GE(fraction, 0.0);
    EXPECT_LE(fraction, 1.0);
    previous = fraction;
  }
}

TEST(Raidr, WeakTailIsTinyAtModerateIntervals) {
  // RAIDR's premise: almost no row needs the fast bin even at seconds-
  // scale intervals.
  const hw::DimmModel dimm(pinned_dimm(), 1);
  const hw::RaidrBinning binning(dimm);
  EXPECT_LT(binning.weak_row_fraction(2_s, Celsius{30.0}), 1e-3);
}

TEST(Raidr, PowerSavingApproachesFullRefreshShare) {
  const hw::DimmModel dimm(pinned_dimm(), 1);
  const hw::RaidrBinning binning(dimm);
  const auto result = binning.evaluate(5_s, Celsius{30.0});
  const double share = dimm.refresh_power_fraction_nominal();
  // Nearly the whole refresh share is saved (tiny fast bin remains).
  EXPECT_GT(result.dimm_power_saving, share * 0.95);
  EXPECT_LE(result.dimm_power_saving, share);
  EXPECT_LT(result.refresh_power_ratio, 0.05);
}

TEST(Raidr, ResidualErrorsMatchNominal) {
  const hw::DimmModel dimm(pinned_dimm(), 1);
  const hw::RaidrBinning binning(dimm);
  const auto result = binning.evaluate(5_s, Celsius{30.0});
  // Binned refresh keeps the error rate at the fast bin's (≈ nominal ≈
  // zero) instead of the uniform-relaxation rate.
  EXPECT_LT(result.expected_errors, 1e-6);
  EXPECT_GT(dimm.expected_errors(5_s, Celsius{30.0}), 1.0);
}

TEST(Raidr, HotterTempGrowsFastBin) {
  const hw::DimmModel dimm(pinned_dimm(), 1);
  const hw::RaidrBinning binning(dimm);
  EXPECT_GT(binning.weak_row_fraction(5_s, Celsius{70.0}),
            binning.weak_row_fraction(5_s, Celsius{30.0}));
}

TEST(Raidr, SweepReturnsOnePerInterval) {
  const hw::DimmModel dimm(pinned_dimm(), 1);
  const hw::RaidrBinning binning(dimm);
  const auto results =
      binning.sweep({1_s, 2_s, 5_s}, Celsius{30.0});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_DOUBLE_EQ(results[2].long_interval.value, 5.0);
  // Longer interval -> at least as much saving.
  EXPECT_GE(results[2].dimm_power_saving, results[0].dimm_power_saving);
}

class GovernorFixture : public ::testing::Test {
 protected:
  GovernorFixture() {
    core::UniServerConfig config;
    config.node_spec.chip = hw::arm_soc_spec();
    config.shmoo.runs = 1;
    node_ = std::make_unique<core::UniServerNode>(config, 31);
    node_->characterize();
  }
  std::unique_ptr<core::UniServerNode> node_;
};

TEST_F(GovernorFixture, HysteresisDelaysModeFlips) {
  core::GovernorConfig config;
  config.hysteresis_ticks = 3;
  core::EopGovernor governor(config);
  const auto& chip = node_->server().chip();
  const auto w = *stress::spec_profile("mcf");
  ASSERT_EQ(governor.mode(), daemons::ExecutionMode::kHighPerformance);
  // Two low-utilization decisions: still high-performance.
  for (int i = 0; i < 2; ++i) {
    governor.decide(node_->margins(), node_->predictor(), chip, w, 0.1,
                    64_ms);
    EXPECT_EQ(governor.mode(), daemons::ExecutionMode::kHighPerformance);
  }
  // The third flips it.
  governor.decide(node_->margins(), node_->predictor(), chip, w, 0.1, 64_ms);
  EXPECT_EQ(governor.mode(), daemons::ExecutionMode::kLowPower);
}

TEST_F(GovernorFixture, HighPerformanceKeepsNominalFrequency) {
  core::EopGovernor governor(core::GovernorConfig{});
  const auto& chip = node_->server().chip();
  const hw::Eop eop =
      governor.decide(node_->margins(), node_->predictor(), chip,
                      *stress::spec_profile("bzip2"), 0.9, 64_ms);
  EXPECT_NEAR(eop.freq.value, chip.spec().freq_nominal.value, 1e-9);
  EXPECT_LT(eop.vdd.value, chip.spec().vdd_nominal.value);
}

TEST_F(GovernorFixture, LowPowerModeDropsFrequency) {
  core::GovernorConfig config;
  config.hysteresis_ticks = 1;
  core::EopGovernor governor(config);
  const auto& chip = node_->server().chip();
  const auto w = *stress::spec_profile("mcf");
  governor.decide(node_->margins(), node_->predictor(), chip, w, 0.1, 64_ms);
  const hw::Eop eop =
      governor.decide(node_->margins(), node_->predictor(), chip, w, 0.1,
                      64_ms);
  EXPECT_EQ(governor.mode(), daemons::ExecutionMode::kLowPower);
  EXPECT_LT(eop.freq.value, chip.spec().freq_nominal.value);
}

TEST_F(GovernorFixture, WorkloadAwareUndervoltsDeeperOnCalmLoad) {
  core::GovernorConfig floor_config;
  core::GovernorConfig aware_config;
  aware_config.workload_aware = true;
  core::EopGovernor floor_governor(floor_config);
  core::EopGovernor aware_governor(aware_config);
  const auto& chip = node_->server().chip();
  const auto calm = *stress::spec_profile("mcf");  // low dI/dt
  const hw::Eop floor_eop = floor_governor.decide(
      node_->margins(), node_->predictor(), chip, calm, 0.9, 64_ms);
  const hw::Eop aware_eop = aware_governor.decide(
      node_->margins(), node_->predictor(), chip, calm, 0.9, 64_ms);
  EXPECT_LT(aware_eop.vdd.value, floor_eop.vdd.value);
}

TEST_F(GovernorFixture, WorkloadAwareStaysSafeForCurrentWorkload) {
  core::GovernorConfig config;
  config.workload_aware = true;
  core::EopGovernor governor(config);
  const auto& chip = node_->server().chip();
  for (const auto& w : stress::spec2006_profiles()) {
    const hw::Eop eop = governor.decide(
        node_->margins(), node_->predictor(), chip, w, 0.9, 64_ms);
    // The chosen point never crosses the current workload's own crash
    // voltage (the Predictor prices candidates against it).
    EXPECT_GT(eop.vdd.value,
              chip.system_crash_voltage(w, eop.freq).value)
        << w.name;
  }
}

TEST_F(GovernorFixture, MidUtilizationKeepsCurrentMode) {
  core::GovernorConfig config;
  config.hysteresis_ticks = 1;
  core::EopGovernor governor(config);
  const auto& chip = node_->server().chip();
  const auto w = *stress::spec_profile("bzip2");
  governor.decide(node_->margins(), node_->predictor(), chip, w, 0.5, 64_ms);
  EXPECT_EQ(governor.mode(), daemons::ExecutionMode::kHighPerformance);
  governor.decide(node_->margins(), node_->predictor(), chip, w, 0.1, 64_ms);
  EXPECT_EQ(governor.mode(), daemons::ExecutionMode::kLowPower);
  governor.decide(node_->margins(), node_->predictor(), chip, w, 0.5, 64_ms);
  EXPECT_EQ(governor.mode(), daemons::ExecutionMode::kLowPower);
}

}  // namespace
}  // namespace uniserver
