// Tests of SLA-aware EOP control: nodes hosting critical VMs back
// their margins off (paper §2: EOP optimization "is guided by the
// system requirements of the end-user for each VM, which are typically
// communicated ... through Service Level Agreements").
#include <gtest/gtest.h>

#include "core/ecosystem.h"
#include "hwmodel/chip_spec.h"
#include "hwmodel/eop.h"
#include "stress/profiles.h"

namespace uniserver::osk {
namespace {

using namespace uniserver::literals;

hv::Vm vm_with_sla(std::uint64_t id, bool critical) {
  hv::Vm vm;
  vm.id = id;
  vm.vcpus = 2;
  vm.memory_mb = 2048.0;
  vm.workload = stress::web_service_profile();
  vm.requirements.critical = critical;
  return vm;
}

daemons::SafeMargins test_margins(const hw::ChipSpec& chip) {
  daemons::SafeMargins margins;
  margins.points.push_back({chip.freq_nominal,
                            hw::apply_undervolt_percent(chip.vdd_nominal,
                                                        14.0),
                            15.0, 14.0});
  margins.safe_refresh = 1500_ms;
  return margins;
}

TEST(SlaAwareEop, NoOpWithoutMargins) {
  hw::NodeSpec spec;
  spec.chip = hw::arm_soc_spec();
  ComputeNode node("n0", 0, spec, hv::HvConfig{}, 1);
  EXPECT_FALSE(node.has_margins());
  EXPECT_FALSE(node.apply_sla_aware_eop(1.5));
}

TEST(SlaAwareEop, CriticalVmBacksOffAndPinsRefresh) {
  hw::NodeSpec spec;
  spec.chip = hw::arm_soc_spec();
  ComputeNode node("n0", 0, spec, hv::HvConfig{}, 1);
  node.set_margins(test_margins(spec.chip));

  // No critical VM: full depth, relaxed refresh.
  ASSERT_TRUE(node.place_vm(vm_with_sla(1, false)));
  EXPECT_TRUE(node.apply_sla_aware_eop(1.5));
  EXPECT_NEAR(hw::undervolt_percent(spec.chip.vdd_nominal,
                                    node.server().eop().vdd),
              14.0, 1e-9);
  EXPECT_DOUBLE_EQ(node.server().eop().refresh.value, 1.5);

  // A critical VM arrives: back off 1.5% and return to nominal refresh.
  ASSERT_TRUE(node.place_vm(vm_with_sla(2, true)));
  EXPECT_TRUE(node.apply_sla_aware_eop(1.5));
  EXPECT_NEAR(hw::undervolt_percent(spec.chip.vdd_nominal,
                                    node.server().eop().vdd),
              12.5, 1e-9);
  EXPECT_DOUBLE_EQ(node.server().eop().refresh.value, 0.064);

  // It leaves: the node re-deepens.
  ASSERT_TRUE(node.remove_vm(2));
  EXPECT_TRUE(node.apply_sla_aware_eop(1.5));
  EXPECT_NEAR(hw::undervolt_percent(spec.chip.vdd_nominal,
                                    node.server().eop().vdd),
              14.0, 1e-9);
  EXPECT_DOUBLE_EQ(node.server().eop().refresh.value, 1.5);
}

TEST(SlaAwareEop, IdempotentWhenNothingChanges) {
  hw::NodeSpec spec;
  spec.chip = hw::arm_soc_spec();
  ComputeNode node("n0", 0, spec, hv::HvConfig{}, 1);
  node.set_margins(test_margins(spec.chip));
  EXPECT_TRUE(node.apply_sla_aware_eop(1.5));
  EXPECT_FALSE(node.apply_sla_aware_eop(1.5));  // already there
}

TEST(SlaAwareEop, CloudAppliesPolicyDuringRun) {
  core::EcosystemConfig config;
  config.node_spec.chip = hw::arm_soc_spec();
  config.nodes = 2;
  config.enable_eop = true;
  config.shmoo.runs = 1;
  config.cloud.tick = 60_s;
  config.cloud.sla_eop_backoff_percent = 1.5;
  core::Ecosystem ecosystem(config, 21);
  ecosystem.commission();

  // One critical, one standard arrival.
  trace::VmRequest critical;
  critical.id = 1;
  critical.arrival = Seconds{0.0};
  critical.lifetime = Seconds{7200.0};
  critical.vcpus = 2;
  critical.memory_mb = 2048.0;
  critical.sla = trace::SlaClass::kCritical;
  critical.workload = stress::web_service_profile();
  trace::VmRequest standard = critical;
  standard.id = 2;
  standard.sla = trace::SlaClass::kStandard;

  ecosystem.run({critical, standard}, Seconds{600.0});

  // The node hosting the critical VM must sit shallower than the other.
  ComputeNode* critical_host = nullptr;
  ComputeNode* other = nullptr;
  for (ComputeNode* node : ecosystem.cloud().node_ptrs()) {
    bool hosts_critical = false;
    for (const auto& [id, vm] : node->hypervisor().vms()) {
      if (vm.requirements.critical) hosts_critical = true;
    }
    (hosts_critical ? critical_host : other) = node;
  }
  ASSERT_NE(critical_host, nullptr);
  ASSERT_NE(other, nullptr);
  const Volt vnom = config.node_spec.chip.vdd_nominal;
  // Each node is judged against its OWN characterized margins (parts
  // differ): the critical host backs off 1.5% and pins nominal refresh;
  // the other runs its full depth with relaxed refresh.
  const auto& critical_point =
      critical_host->margins().point_for(critical_host->server().eop().freq);
  EXPECT_NEAR(hw::undervolt_percent(vnom, critical_host->server().eop().vdd),
              critical_point.safe_offset_percent - 1.5, 1e-6);
  EXPECT_DOUBLE_EQ(critical_host->server().eop().refresh.value, 0.064);
  const auto& other_point =
      other->margins().point_for(other->server().eop().freq);
  EXPECT_NEAR(hw::undervolt_percent(vnom, other->server().eop().vdd),
              other_point.safe_offset_percent, 1e-6);
  EXPECT_GT(other->server().eop().refresh.value, 0.064);
}

}  // namespace
}  // namespace uniserver::osk
