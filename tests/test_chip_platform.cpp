#include <gtest/gtest.h>

#include <algorithm>

#include "common/stats.h"
#include "hwmodel/chip.h"
#include "hwmodel/chip_spec.h"
#include "hwmodel/eop.h"
#include "hwmodel/platform.h"
#include "stress/profiles.h"

namespace uniserver::hw {
namespace {

using namespace uniserver::literals;

TEST(Chip, SeedDeterminism) {
  const Chip a(arm_soc_spec(), 77);
  const Chip b(arm_soc_spec(), 77);
  const auto w = *stress::spec_profile("bzip2");
  const MegaHertz f = arm_soc_spec().freq_nominal;
  EXPECT_DOUBLE_EQ(a.system_crash_voltage(w, f).value,
                   b.system_crash_voltage(w, f).value);
}

TEST(Chip, DifferentSeedsDifferentParts) {
  const Chip a(arm_soc_spec(), 1);
  const Chip b(arm_soc_spec(), 2);
  const auto w = *stress::spec_profile("bzip2");
  const MegaHertz f = arm_soc_spec().freq_nominal;
  EXPECT_NE(a.system_crash_voltage(w, f).value,
            b.system_crash_voltage(w, f).value);
}

TEST(Chip, SystemCrashIsWorstCore) {
  const Chip chip(i7_3970x_spec(), 42);
  const auto w = *stress::spec_profile("mcf");
  const MegaHertz f = i7_3970x_spec().freq_nominal;
  const Volt system = chip.system_crash_voltage(w, f);
  const Volt best = chip.best_core_crash_voltage(w, f);
  EXPECT_GE(system, best);
  for (const auto& core : chip.cores()) {
    EXPECT_LE(core.crash_voltage(w, f), system);
    EXPECT_GE(core.crash_voltage(w, f), best);
  }
}

TEST(Chip, CoreToCoreVariationNonNegative) {
  const Chip chip(i7_3970x_spec(), 42);
  const MegaHertz f = i7_3970x_spec().freq_nominal;
  for (const auto& w : stress::spec2006_profiles()) {
    EXPECT_GE(chip.core_to_core_variation_percent(w, f), 0.0);
  }
}

TEST(Chip, CoreCountMatchesSpec) {
  EXPECT_EQ(Chip(i5_4200u_spec(), 1).num_cores(), 2);
  EXPECT_EQ(Chip(i7_3970x_spec(), 1).num_cores(), 6);
  EXPECT_EQ(Chip(arm_soc_spec(), 1).num_cores(), 8);
}

NodeSpec node_spec() {
  NodeSpec spec;
  spec.chip = arm_soc_spec();
  return spec;
}

TEST(ServerNode, BootsAtNominal) {
  ServerNode node(node_spec(), 5);
  EXPECT_DOUBLE_EQ(node.eop().vdd.value, node.spec().chip.vdd_nominal.value);
  EXPECT_DOUBLE_EQ(node.eop().freq.value,
                   node.spec().chip.freq_nominal.value);
  EXPECT_DOUBLE_EQ(node.eop().refresh.value, 0.064);
}

TEST(ServerNode, SetEopPropagatesToChannels) {
  ServerNode node(node_spec(), 5);
  Eop eop;
  eop.vdd = Volt{0.9};
  eop.freq = MegaHertz{2000.0};
  eop.refresh = 1500_ms;
  node.set_eop(eop);
  for (int c = 0; c < node.memory().channels(); ++c) {
    EXPECT_DOUBLE_EQ(node.memory().channel_refresh(c).value, 1.5);
  }
}

TEST(ServerNode, ReliableChannelStaysNominal) {
  ServerNode node(node_spec(), 5);
  node.pin_channel_reliable(0, true);
  Eop eop = node.eop();
  eop.refresh = Seconds{5.0};
  node.set_eop(eop);
  EXPECT_DOUBLE_EQ(node.memory().channel_refresh(0).value, 0.064);
  EXPECT_DOUBLE_EQ(node.memory().channel_refresh(1).value, 5.0);
  EXPECT_TRUE(node.channel_reliable(0));
  // Unpinning re-applies the EOP refresh.
  node.pin_channel_reliable(0, false);
  EXPECT_DOUBLE_EQ(node.memory().channel_refresh(0).value, 5.0);
}

TEST(ServerNode, RunAtNominalNeverCrashes) {
  ServerNode node(node_spec(), 5);
  Rng rng(1);
  const auto w = *stress::spec_profile("h264ref");
  for (int i = 0; i < 50; ++i) {
    const RunResult result = node.run(w, 10_s, 8, rng);
    ASSERT_FALSE(result.crashed);
    EXPECT_GT(result.energy.value, 0.0);
    EXPECT_GT(result.avg_power.value, 0.0);
  }
}

TEST(ServerNode, RunBelowMarginCrashes) {
  ServerNode node(node_spec(), 5);
  Eop eop = node.eop();
  eop.vdd = Volt{node.spec().chip.vdd_nominal.value * 0.60};  // way below
  node.set_eop(eop);
  Rng rng(1);
  const auto w = *stress::spec_profile("h264ref");
  const RunResult result = node.run(w, 10_s, 8, rng);
  EXPECT_TRUE(result.crashed);
  EXPECT_GE(result.crashing_core, 0);
  EXPECT_LT(result.time_to_crash.value, 10.0);
  EXPECT_GT(result.time_to_crash.value, 0.0);
}

TEST(ServerNode, UndervoltingSavesPower) {
  ServerNode node(node_spec(), 5);
  const auto w = *stress::spec_profile("bzip2");
  const Watt nominal = node.node_power(w, 8);
  Eop eop = node.eop();
  eop.vdd = Volt{node.spec().chip.vdd_nominal.value * 0.9};
  node.set_eop(eop);
  EXPECT_LT(node.node_power(w, 8).value, nominal.value);
}

TEST(ServerNode, SensorsAreNoisyButCentered) {
  ServerNode node(node_spec(), 5);
  const auto w = *stress::spec_profile("bzip2");
  Rng run_rng(1);
  const RunResult run = node.run(w, 10_s, 8, run_rng);
  Rng rng(2);
  Accumulator power;
  for (int i = 0; i < 500; ++i) {
    const SensorReadings sensors = node.read_sensors(run, rng);
    power.add(sensors.package_power.value);
    EXPECT_DOUBLE_EQ(sensors.vdd.value, node.eop().vdd.value);
  }
  const auto op = node.chip().power().steady_state(
      node.eop().vdd, node.eop().freq, w.activity, 8);
  EXPECT_NEAR(power.mean(), op.power.value, 0.1);
  EXPECT_GT(power.stddev(), 0.0);
}

TEST(ServerNode, StrongCoreFirstActivatesDeepestMargins) {
  NodeSpec strong = node_spec();
  strong.strong_cores_first = true;
  ServerNode node(strong, 5);
  const auto w = *stress::spec_profile("bzip2");
  const auto set = node.active_core_set(w, 3);
  ASSERT_EQ(set.size(), 3u);
  // Every selected core must be at least as strong (lower crash V)
  // than every unselected one.
  const MegaHertz f = node.eop().freq;
  for (int selected : set) {
    for (int c = 0; c < node.chip().num_cores(); ++c) {
      if (std::find(set.begin(), set.end(), c) != set.end()) continue;
      EXPECT_LE(node.chip().core(selected).crash_voltage(w, f).value,
                node.chip().core(c).crash_voltage(w, f).value);
    }
  }
}

TEST(ServerNode, StrongFirstCrashVoltageNeverWorse) {
  const auto w = *stress::spec_profile("mcf");
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    NodeSpec naive = node_spec();
    NodeSpec strong = node_spec();
    strong.strong_cores_first = true;
    ServerNode naive_node(naive, seed);
    ServerNode strong_node(strong, seed);
    for (int active = 1; active <= 8; ++active) {
      EXPECT_LE(strong_node.active_crash_voltage(w, active).value,
                naive_node.active_crash_voltage(w, active).value + 1e-12);
    }
    // Full load: identical (the weakest core is in every set).
    EXPECT_NEAR(strong_node.active_crash_voltage(w, 8).value,
                naive_node.active_crash_voltage(w, 8).value, 1e-12);
  }
}

TEST(ServerNode, ActiveCrashVoltageMonotoneInCoreCount) {
  NodeSpec strong = node_spec();
  strong.strong_cores_first = true;
  ServerNode node(strong, 5);
  const auto w = *stress::spec_profile("bzip2");
  double previous = 0.0;
  for (int active = 1; active <= 8; ++active) {
    const double crash = node.active_crash_voltage(w, active).value;
    EXPECT_GE(crash, previous);
    previous = crash;
  }
}

TEST(ServerNode, CacheEccAppearsNearCrash) {
  // Drive the node into the ECC band just above the crash point and
  // expect correctable events.
  ServerNode node(node_spec(), 5);
  const auto w = *stress::spec_profile("h264ref");
  const Volt crash =
      node.chip().system_crash_voltage(w, node.spec().chip.freq_nominal);
  Eop eop = node.eop();
  eop.vdd = crash + Volt::from_mv(2.0);
  node.set_eop(eop);
  Rng rng(3);
  std::uint64_t total = 0;
  for (int i = 0; i < 20; ++i) {
    total += node.run(w, 10_s, 8, rng).cache_ecc_corrected;
  }
  EXPECT_GT(total, 0u);
}

}  // namespace
}  // namespace uniserver::hw
