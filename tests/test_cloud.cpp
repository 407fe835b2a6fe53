#include "openstack/cloud.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "hwmodel/chip_spec.h"
#include "stress/profiles.h"

namespace uniserver::osk {
namespace {

using namespace uniserver::literals;

hw::NodeSpec node_spec() {
  hw::NodeSpec spec;
  spec.chip = hw::arm_soc_spec();
  return spec;
}

trace::VmRequest request_at(std::uint64_t id, double arrival,
                            double lifetime, int vcpus = 2) {
  trace::VmRequest request;
  request.id = id;
  request.arrival = Seconds{arrival};
  request.lifetime = Seconds{lifetime};
  request.vcpus = vcpus;
  request.memory_mb = 2048.0;
  request.sla = trace::SlaClass::kStandard;
  request.workload = stress::web_service_profile();
  return request;
}

CloudConfig config_with(SchedulerPolicy policy, bool migration = true) {
  CloudConfig config;
  config.policy = policy;
  config.proactive_migration = migration;
  config.tick = 60_s;
  return config;
}

TEST(Cloud, AcceptsAndCompletesRequests) {
  auto cloud = Cloud::make_uniform(
      config_with(SchedulerPolicy::kFirstFit), node_spec(), hv::HvConfig{},
      2, 1);
  std::vector<trace::VmRequest> requests{
      request_at(1, 0.0, 600.0), request_at(2, 100.0, 600.0)};
  cloud->run(requests, Seconds{3600.0});
  const CloudStats& stats = cloud->stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_DOUBLE_EQ(stats.vm_survival_rate(), 1.0);
  EXPECT_GT(stats.total_energy_kwh, 0.0);
}

TEST(Cloud, RejectsWhenFleetIsFull) {
  auto cloud = Cloud::make_uniform(
      config_with(SchedulerPolicy::kFirstFit), node_spec(), hv::HvConfig{},
      1, 1);
  std::vector<trace::VmRequest> requests;
  // 8 cores per node: 5 x 2 vCPUs fit, the 6th and beyond do not... the
  // node has 8 cores so 4 VMs of 2 vCPUs fit.
  for (std::uint64_t id = 1; id <= 6; ++id) {
    requests.push_back(request_at(id, 0.0, 7200.0));
  }
  cloud->run(requests, Seconds{600.0});
  EXPECT_EQ(cloud->stats().accepted, 4u);
  EXPECT_EQ(cloud->stats().rejected, 2u);
}

TEST(Cloud, DeparturesFreeCapacity) {
  auto cloud = Cloud::make_uniform(
      config_with(SchedulerPolicy::kFirstFit), node_spec(), hv::HvConfig{},
      1, 1);
  std::vector<trace::VmRequest> requests;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    requests.push_back(request_at(id, 0.0, 600.0));
  }
  // Arrives after the first batch departed.
  requests.push_back(request_at(5, 1200.0, 600.0));
  cloud->run(requests, Seconds{3600.0});
  EXPECT_EQ(cloud->stats().accepted, 5u);
  EXPECT_EQ(cloud->stats().completed, 5u);
}

TEST(Cloud, NodePointersMatchFleetSize) {
  auto cloud = Cloud::make_uniform(
      config_with(SchedulerPolicy::kFirstFit), node_spec(), hv::HvConfig{},
      5, 1);
  EXPECT_EQ(cloud->node_ptrs().size(), 5u);
}

TEST(Cloud, ProactiveEvacuationMovesVmsOffFailingNode) {
  CloudConfig config = config_with(SchedulerPolicy::kReliabilityAware, true);
  config.predictor.evacuation_score = 60.0;
  auto cloud = Cloud::make_uniform(config, node_spec(), hv::HvConfig{}, 3,
                                   1);
  // Long-lived VM that first-fit-style lands on node 0.
  std::vector<trace::VmRequest> requests{request_at(1, 0.0, 36000.0)};

  // Make node 0 an error fountain: relax its refresh far past safe.
  auto nodes = cloud->node_ptrs();
  hw::Eop eop = nodes[0]->server().eop();
  eop.refresh = Seconds{5.0};
  nodes[0]->server().set_eop(eop);

  cloud->run(requests, Seconds{4.0 * 3600.0});
  const CloudStats& stats = cloud->stats();
  EXPECT_GE(stats.evacuations, 1u);
  // Either the VM was successfully moved, or it was killed by an SDC
  // before evacuation could happen (it must not still sit on node 0).
  EXPECT_EQ(nodes[0]->hypervisor().vm_count(), 0u);
}

TEST(Cloud, MigrationDisabledLeavesVmsInPlace) {
  CloudConfig config = config_with(SchedulerPolicy::kFirstFit, false);
  auto cloud = Cloud::make_uniform(config, node_spec(), hv::HvConfig{}, 3,
                                   1);
  std::vector<trace::VmRequest> requests{request_at(1, 0.0, 7200.0)};
  cloud->run(requests, Seconds{3600.0});
  EXPECT_EQ(cloud->stats().migrations, 0u);
  EXPECT_EQ(cloud->stats().evacuations, 0u);
}

TEST(Cloud, SurvivalRateArithmetic) {
  CloudStats stats;
  stats.accepted = 10;
  stats.lost_to_errors = 1;
  stats.lost_to_node_crash = 2;
  EXPECT_NEAR(stats.vm_survival_rate(), 0.7, 1e-12);
  CloudStats empty;
  EXPECT_DOUBLE_EQ(empty.vm_survival_rate(), 1.0);
}

TEST(Cloud, CriticalVmsLandOnReliableNodes) {
  CloudConfig config = config_with(SchedulerPolicy::kReliabilityAware);
  auto cloud = Cloud::make_uniform(config, node_spec(), hv::HvConfig{}, 3,
                                   1);
  trace::VmRequest critical = request_at(1, 0.0, 3600.0);
  critical.sla = trace::SlaClass::kCritical;
  cloud->run({critical}, Seconds{300.0});
  EXPECT_EQ(cloud->stats().accepted, 1u);
  // The critical VM sits somewhere with the critical flag set.
  bool found = false;
  for (ComputeNode* node : cloud->node_ptrs()) {
    for (const auto& [id, vm] : node->hypervisor().vms()) {
      if (id == 1) {
        found = true;
        EXPECT_TRUE(vm.requirements.critical);
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(Cloud, EmptyFleetRejectsEveryRequestCleanly) {
  // Placement edge case: a cloud with zero commissioned nodes must
  // reject everything with balanced books, for both engines, and the
  // two engines' decision digests must still agree.
  std::uint64_t digests[2] = {0, 0};
  int i = 0;
  for (const SchedulerEngine engine :
       {SchedulerEngine::kIndexed, SchedulerEngine::kReference}) {
    CloudConfig config = config_with(SchedulerPolicy::kReliabilityAware);
    config.engine = engine;
    auto cloud =
        Cloud::make_uniform(config, node_spec(), hv::HvConfig{}, 0, 1);
    cloud->run({request_at(1, 0.0, 600.0), request_at(2, 60.0, 600.0)},
               Seconds{600.0});
    const CloudStats& stats = cloud->stats();
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.rejected, 2u);
    EXPECT_EQ(stats.accepted, 0u);
    digests[i++] = cloud->placement_digest();
  }
  EXPECT_EQ(digests[0], digests[1]);
}

TEST(Cloud, CrashedNodeRejectsUntilRepairedThenAcceptsAgain) {
  // Placement edge case: after a node hard-fails, arrivals must see a
  // clean rejection (no stale capacity state) until the repair window
  // elapses and the node re-registers — identically for both engines.
  std::uint64_t digests[2] = {0, 0};
  int i = 0;
  for (const SchedulerEngine engine :
       {SchedulerEngine::kIndexed, SchedulerEngine::kReference}) {
    CloudConfig config = config_with(SchedulerPolicy::kFirstFit, false);
    config.engine = engine;
    auto cloud =
        Cloud::make_uniform(config, node_spec(), hv::HvConfig{}, 1, 1);
    cloud->inject_node_crash(0);
    EXPECT_FALSE(cloud->node_ptrs()[0]->up());
    // Repair takes 300 s: the t=60 arrival hits the down node, the
    // t=1200 arrival lands after re-registration.
    cloud->run({request_at(1, 60.0, 300.0), request_at(2, 1200.0, 300.0)},
               Seconds{3600.0});
    const CloudStats& stats = cloud->stats();
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.rejected, 1u);
    EXPECT_EQ(stats.accepted, 1u);
    EXPECT_TRUE(cloud->node_ptrs()[0]->up());
    digests[i++] = cloud->placement_digest();
  }
  EXPECT_EQ(digests[0], digests[1]);
}

TEST(Cloud, EqualArrivalsArePlacedInIdOrder) {
  // 40 requests share one arrival time and are given in descending id
  // order: more than the sort's insertion-sort cutoff, so an ordering on
  // arrival time alone leaves their order to the implementation.
  CloudConfig config = config_with(SchedulerPolicy::kFirstFit, false);
  config.record_placements = true;
  auto cloud = Cloud::make_uniform(config, node_spec(), hv::HvConfig{}, 4, 1);
  std::vector<trace::VmRequest> requests;
  for (std::uint64_t id = 40; id >= 1; --id) {
    requests.push_back(request_at(id, 30.0, 3600.0, 1));
  }
  cloud->run(requests, Seconds{60.0});
  const auto& placements = cloud->placements();
  ASSERT_EQ(placements.size(), 40u);
  for (std::size_t i = 0; i < placements.size(); ++i) {
    EXPECT_EQ(placements[i].vm_id, i + 1) << "decision " << i;
  }
}

TEST(Cloud, DeparturesRetireExactlyTheDueVmsAcrossLossesAndMigrations) {
  // Departures come off a (time, id) heap. Drive the cloud tick by tick
  // and check, after every tick, that exactly the VMs due by then have
  // left: VMs sharing a departure time, VMs lost to a crash before they
  // were due (their heap entries go stale, including one whose id is
  // admitted again with a later departure), and VMs migrated to another
  // node before they were due.
  CloudConfig config = config_with(SchedulerPolicy::kFirstFit, false);
  config.nodes_per_rack = 2;
  // 48 vCPUs of VMs fill six 8-core nodes first-fit; two stay empty.
  auto cloud = Cloud::make_uniform(config, node_spec(), hv::HvConfig{}, 8, 1);
  const auto nodes = cloud->node_ptrs();

  std::map<std::uint64_t, double> departs_at;
  std::vector<trace::VmRequest> first_batch;
  for (std::uint64_t id = 24; id >= 1; --id) {
    // Three departure times shared by eight VMs each: 600, 900, 1500 s.
    const double departure = id <= 8 ? 600.0 : id <= 16 ? 900.0 : 1500.0;
    first_batch.push_back(request_at(id, 30.0, departure - 30.0, 2));
    departs_at[id] = departure;
  }

  auto active_ids = [&] {
    std::map<std::uint64_t, const ComputeNode*> ids;
    for (const auto& placement : cloud->active_placements()) {
      ids[placement.id] = placement.node;
    }
    return ids;
  };
  auto hosted_anywhere = [&](std::uint64_t id) {
    for (const ComputeNode* node : cloud->node_views()) {
      if (node->hypervisor().vms().contains(id)) return true;
    }
    return false;
  };

  std::uint64_t expected_completed = 0;
  std::uint64_t reused_id = 0;
  std::set<std::uint64_t> migrated;
  std::map<std::uint64_t, const ComputeNode*> before;
  for (int tick = 1; tick <= 36; ++tick) {
    const double now = 60.0 * tick;
    std::vector<trace::VmRequest> batch;
    if (tick == 1) batch = first_batch;
    if (tick == 6) {
      // A VM lost at t=300 comes back under its old id, due at 2100 s.
      batch.push_back(request_at(reused_id, now - 10.0, 2100.0 - (now - 10.0),
                                 2));
      departs_at[reused_id] = 2100.0;
    }
    cloud->run(batch, Seconds{now});
    const auto after = active_ids();
    for (const auto& [id, node] : before) {
      if (departs_at.at(id) <= now) {
        EXPECT_FALSE(after.contains(id)) << "vm " << id << " at " << now;
        EXPECT_FALSE(hosted_anywhere(id)) << "vm " << id << " at " << now;
        ++expected_completed;
      } else {
        EXPECT_TRUE(after.contains(id)) << "vm " << id << " at " << now;
        if (after.contains(id) && after.at(id) != node) migrated.insert(id);
      }
    }
    EXPECT_EQ(cloud->stats().completed, expected_completed) << "at " << now;
    if (tick == 5) {
      // Lose every VM on node 0, and drain node 2 by migration.
      const auto on_node = active_ids();
      for (const auto& [id, node] : on_node) {
        if (node == nodes[0] && reused_id == 0) reused_id = id;
      }
      ASSERT_NE(reused_id, 0u);
      cloud->inject_node_crash(0);
      cloud->inject_eop_retreat(2);
    }
    before = active_ids();
  }
  // Everything is due by 2100 s; nothing was left behind or doubled.
  EXPECT_TRUE(cloud->active_placements().empty());
  EXPECT_FALSE(migrated.empty());
  EXPECT_GT(cloud->stats().lost_to_node_crash, 0u);
  EXPECT_EQ(cloud->stats().completed + cloud->stats().lost_to_node_crash +
                cloud->stats().lost_to_errors,
            cloud->stats().accepted);
  EXPECT_EQ(cloud->stats().accepted, 25u);
}

}  // namespace
}  // namespace uniserver::osk
