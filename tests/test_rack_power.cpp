// Tests of rack-level power provisioning in the cloud layer.
#include <gtest/gtest.h>

#include <vector>

#include "hwmodel/chip_spec.h"
#include "hwmodel/eop.h"
#include "openstack/cloud.h"
#include "stress/profiles.h"

namespace uniserver::osk {
namespace {

using namespace uniserver::literals;

hw::NodeSpec node_spec() {
  hw::NodeSpec spec;
  spec.chip = hw::arm_soc_spec();
  return spec;
}

trace::VmRequest request_at(std::uint64_t id, int vcpus = 4) {
  trace::VmRequest request;
  request.id = id;
  request.arrival = Seconds{0.0};
  request.lifetime = Seconds{36000.0};
  request.vcpus = vcpus;
  request.memory_mb = 2048.0;
  request.sla = trace::SlaClass::kStandard;
  request.workload = stress::analytics_profile();  // hot guest
  return request;
}

TEST(RackPower, RackIndexingGroupsByConstructionOrder) {
  CloudConfig config;
  config.nodes_per_rack = 2;
  auto cloud =
      Cloud::make_uniform(config, node_spec(), hv::HvConfig{}, 5, 1);
  const auto ptrs = cloud->node_ptrs();
  EXPECT_EQ(cloud->rack_of(ptrs[0]), 0);
  EXPECT_EQ(cloud->rack_of(ptrs[1]), 0);
  EXPECT_EQ(cloud->rack_of(ptrs[2]), 1);
  EXPECT_EQ(cloud->rack_of(ptrs[4]), 2);
}

TEST(RackPower, RackPowerAggregatesNodes) {
  CloudConfig config;
  config.nodes_per_rack = 2;
  auto cloud =
      Cloud::make_uniform(config, node_spec(), hv::HvConfig{}, 4, 1);
  const std::vector<Watt> idle = cloud->rack_power();
  ASSERT_EQ(idle.size(), 2u);
  const Watt idle_rack = idle[0];
  EXPECT_GT(idle_rack.value, 0.0);
  // Load rack 0 and its power rises; rack 1 unaffected.
  const Watt rack1_before = idle[1];
  hv::Vm vm;
  vm.id = 1;
  vm.vcpus = 6;
  vm.memory_mb = 2048.0;
  vm.workload = stress::analytics_profile();
  ASSERT_TRUE(cloud->node_ptrs()[0]->place_vm(vm));
  const std::vector<Watt> loaded = cloud->rack_power();
  EXPECT_GT(loaded[0].value, idle_rack.value);
  EXPECT_NEAR(loaded[1].value, rack1_before.value, 1e-9);
}

TEST(RackPower, UncappedAdmitsEverything) {
  // No cap: a VM filling a whole node is admitted, and nothing is ever
  // rejected for power.
  CloudConfig config;
  config.rack_power_cap = Watt{0.0};
  auto cloud =
      Cloud::make_uniform(config, node_spec(), hv::HvConfig{}, 2, 1);
  cloud->run({request_at(1, 8)}, Seconds{120.0});
  EXPECT_EQ(cloud->stats().accepted, 1u);
  EXPECT_EQ(cloud->stats().rejected_for_power, 0u);
}

TEST(RackPower, CapRejectsWorkOverBudget) {
  CloudConfig config;
  config.policy = SchedulerPolicy::kFirstFit;
  config.nodes_per_rack = 2;
  // Cap just above the idle draw of a 2-node rack: one hot VM fits,
  // a second does not.
  CloudConfig probe = config;
  auto probe_cloud =
      Cloud::make_uniform(probe, node_spec(), hv::HvConfig{}, 4, 1);
  const double idle = probe_cloud->rack_power()[0].value;
  config.rack_power_cap = Watt{idle + 12.0};

  auto cloud =
      Cloud::make_uniform(config, node_spec(), hv::HvConfig{}, 4, 1);
  // 4 nodes = 2 racks; submit three hot VMs: two land (one per rack),
  // the third finds both racks power-capped.
  std::vector<trace::VmRequest> requests{request_at(1), request_at(2),
                                         request_at(3)};
  cloud->run(requests, Seconds{120.0});
  EXPECT_EQ(cloud->stats().accepted, 2u);
  EXPECT_EQ(cloud->stats().rejected, 1u);
  EXPECT_EQ(cloud->stats().rejected_for_power, 1u);
  // The two accepted VMs sit in different racks.
  int rack0_vms = 0;
  int rack1_vms = 0;
  for (ComputeNode* node : cloud->node_ptrs()) {
    const int count = static_cast<int>(node->hypervisor().vm_count());
    if (cloud->rack_of(node) == 0) {
      rack0_vms += count;
    } else {
      rack1_vms += count;
    }
  }
  EXPECT_EQ(rack0_vms, 1);
  EXPECT_EQ(rack1_vms, 1);
}

TEST(RackPower, UndervoltedFleetFitsMoreUnderSameCap) {
  // The infrastructure half of the TCO argument: at the same rack cap,
  // a commissioned (undervolted) fleet admits more hot VMs.
  auto run_fleet = [](bool undervolt) {
    CloudConfig config;
    config.policy = SchedulerPolicy::kFirstFit;
    config.nodes_per_rack = 4;
    config.rack_power_cap = Watt{150.0};
    auto cloud =
        Cloud::make_uniform(config, node_spec(), hv::HvConfig{}, 4, 1);
    if (undervolt) {
      for (ComputeNode* node : cloud->node_ptrs()) {
        hw::Eop eop = node->server().eop();
        eop.vdd = hw::apply_undervolt_percent(
            node->server().spec().chip.vdd_nominal, 15.0);
        node->hypervisor().apply_eop(eop);
      }
    }
    std::vector<trace::VmRequest> requests;
    for (std::uint64_t id = 1; id <= 8; ++id) {
      requests.push_back(request_at(id, 4));
    }
    cloud->run(requests, Seconds{120.0});
    return cloud->stats().accepted;
  };
  EXPECT_GT(run_fleet(true), run_fleet(false));
}

}  // namespace
}  // namespace uniserver::osk
