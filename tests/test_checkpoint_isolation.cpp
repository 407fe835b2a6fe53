// Tests of VM checkpointing and memory-channel isolation.
#include <gtest/gtest.h>

#include "hwmodel/chip_spec.h"
#include "hwmodel/eop.h"
#include "hwmodel/platform.h"
#include "hypervisor/hypervisor.h"
#include "stress/profiles.h"

namespace uniserver::hv {
namespace {

using namespace uniserver::literals;

hw::NodeSpec node_spec() {
  hw::NodeSpec spec;
  spec.chip = hw::arm_soc_spec();
  return spec;
}

Vm big_vm(std::uint64_t id = 1) {
  Vm vm;
  vm.id = id;
  vm.vcpus = 4;
  vm.memory_mb = 16384.0;
  vm.workload = stress::ldbc_profile();
  return vm;
}

struct DayOutcome {
  std::uint64_t kills{0};
  std::uint64_t restores{0};
  double energy{0.0};
};

DayOutcome run_day(bool checkpointing, std::uint64_t seed) {
  hw::ServerNode node(node_spec(), seed);
  HvConfig config;
  config.use_reliable_domain = true;
  config.selective_protection = false;
  config.vm_checkpointing = checkpointing;
  config.guest_sdc_survival = 0.0;  // every guest hit is fatal to it
  config.channel_isolation_threshold_per_hour = 1e12;  // off for this test
  Hypervisor hypervisor(node, config, seed);
  hypervisor.create_vm(big_vm());
  hw::Eop eop = node.eop();
  eop.refresh = Seconds{5.0};
  hypervisor.apply_eop(eop);

  DayOutcome outcome;
  for (int i = 0; i < 24 * 60; ++i) {
    const TickReport report = hypervisor.tick(Seconds{60.0 * i}, 60_s);
    outcome.kills += report.vms_killed.size();
    outcome.restores += report.vms_restored.size();
    outcome.energy += report.energy.value;
    if (!hypervisor.vms().contains(1)) hypervisor.create_vm(big_vm());
  }
  return outcome;
}

TEST(Checkpointing, RestoresInsteadOfKills) {
  const DayOutcome without = run_day(false, 77);
  const DayOutcome with = run_day(true, 77);
  EXPECT_GT(without.kills, 10u);
  EXPECT_EQ(without.restores, 0u);
  EXPECT_EQ(with.kills, 0u);
  EXPECT_GT(with.restores, 10u);
}

TEST(Checkpointing, OverheadIsCharged) {
  const DayOutcome without = run_day(false, 78);
  const DayOutcome with = run_day(true, 78);
  // ~1% checkpoint overhead on energy (kills change runtime slightly,
  // so allow a band).
  EXPECT_GT(with.energy, without.energy * 1.003);
  EXPECT_LT(with.energy, without.energy * 1.05);
}

TEST(Checkpointing, StatsCountRestores) {
  hw::ServerNode node(node_spec(), 79);
  HvConfig config;
  config.vm_checkpointing = true;
  config.guest_sdc_survival = 0.0;
  Hypervisor hypervisor(node, config, 79);
  hypervisor.create_vm(big_vm());
  hw::Eop eop = node.eop();
  eop.refresh = Seconds{5.0};
  hypervisor.apply_eop(eop);
  std::uint64_t restores = 0;
  for (int i = 0; i < 24 * 60; ++i) {
    restores += hypervisor.tick(Seconds{60.0 * i}, 60_s).vms_restored.size();
  }
  EXPECT_EQ(hypervisor.stats().vm_restores, restores);
  EXPECT_EQ(hypervisor.stats().vm_kills, 0u);
  // Restored VMs stay resident.
  EXPECT_EQ(hypervisor.vm_count(), 1u);
}

TEST(ChannelIsolation, ErrorStormPinsChannelToNominal) {
  hw::ServerNode node(node_spec(), 80);
  HvConfig config;
  config.use_reliable_domain = false;
  config.channel_isolation_threshold_per_hour = 5.0;
  Hypervisor hypervisor(node, config, 80);
  hypervisor.create_vm(big_vm());
  hw::Eop eop = node.eop();
  eop.refresh = Seconds{5.0};  // error fountain on every channel
  hypervisor.apply_eop(eop);

  for (int i = 0; i < 12 * 60 && hypervisor.isolated_channels() == 0;
       ++i) {
    hypervisor.tick(Seconds{60.0 * i}, 60_s);
    if (!hypervisor.vms().contains(1)) hypervisor.create_vm(big_vm());
  }
  ASSERT_GT(hypervisor.isolated_channels(), 0);
  for (int channel = 0; channel < node.memory().channels(); ++channel) {
    if (!hypervisor.channel_isolated(channel)) continue;
    EXPECT_TRUE(node.channel_reliable(channel));
    EXPECT_DOUBLE_EQ(node.memory().channel_refresh(channel).value, 0.064);
  }
}

TEST(ChannelIsolation, QuietChannelsStayRelaxed) {
  hw::ServerNode node(node_spec(), 81);
  HvConfig config;
  config.use_reliable_domain = false;
  config.channel_isolation_threshold_per_hour = 5.0;
  Hypervisor hypervisor(node, config, 81);
  hypervisor.create_vm(big_vm());
  hw::Eop eop = node.eop();
  eop.refresh = Seconds{1.0};  // comfortably clean interval
  hypervisor.apply_eop(eop);
  for (int i = 0; i < 6 * 60; ++i) {
    hypervisor.tick(Seconds{60.0 * i}, 60_s);
  }
  EXPECT_EQ(hypervisor.isolated_channels(), 0);
}

}  // namespace
}  // namespace uniserver::hv
