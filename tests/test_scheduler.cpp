#include "openstack/scheduler.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "hwmodel/chip_spec.h"
#include "openstack/scheduler_index.h"

namespace uniserver::osk {
namespace {

hw::NodeSpec node_spec() {
  hw::NodeSpec spec;
  spec.chip = hw::arm_soc_spec();
  return spec;
}

struct Fleet {
  Fleet() {
    for (int i = 0; i < 3; ++i) {
      nodes.push_back(std::make_unique<ComputeNode>(
          "node-" + std::to_string(i), static_cast<std::size_t>(i),
          node_spec(), hv::HvConfig{},
          static_cast<std::uint64_t>(i + 1)));
    }
    for (auto& node : nodes) ptrs.push_back(node.get());
  }
  std::vector<std::unique_ptr<ComputeNode>> nodes;
  std::vector<ComputeNode*> ptrs;
};

hv::Vm small_vm(std::uint64_t id = 1) {
  hv::Vm vm;
  vm.id = id;
  vm.vcpus = 1;
  vm.memory_mb = 1024.0;
  return vm;
}

// Every behavioral test runs against both engine implementations; the
// differential suite covers whole scenarios, this covers the contract.
class EngineTest : public ::testing::TestWithParam<SchedulerEngine> {
 protected:
  std::unique_ptr<PlacementEngine> make(SchedulerPolicy policy) {
    auto engine = make_placement_engine(GetParam(), policy);
    engine->bind(fleet.ptrs);
    return engine;
  }
  Fleet fleet;
};

INSTANTIATE_TEST_SUITE_P(BothEngines, EngineTest,
                         ::testing::Values(SchedulerEngine::kIndexed,
                                           SchedulerEngine::kReference),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(SchedulerFilters, CapacityChecks) {
  Fleet fleet;
  hv::Vm too_big = small_vm();
  too_big.vcpus = 100;
  EXPECT_FALSE(passes_filters(*fleet.ptrs[0], too_big, false));
  hv::Vm too_fat = small_vm();
  too_fat.memory_mb = 1e9;
  EXPECT_FALSE(passes_filters(*fleet.ptrs[0], too_fat, false));
  EXPECT_TRUE(passes_filters(*fleet.ptrs[0], small_vm(), false));
}

TEST(SchedulerFilters, CriticalNeedsReliableNode) {
  Fleet fleet;
  fleet.ptrs[0]->set_reliability(0.5);
  EXPECT_FALSE(passes_filters(*fleet.ptrs[0], small_vm(), true));
  EXPECT_TRUE(passes_filters(*fleet.ptrs[0], small_vm(), false));
  fleet.ptrs[0]->set_reliability(0.999);
  EXPECT_TRUE(passes_filters(*fleet.ptrs[0], small_vm(), true));
}

TEST_P(EngineTest, FirstFitPicksFirstFeasible) {
  auto engine = make(SchedulerPolicy::kFirstFit);
  EXPECT_EQ(engine->pick(small_vm(), false), fleet.ptrs[0]);
}

TEST_P(EngineTest, RoundRobinRotates) {
  auto engine = make(SchedulerPolicy::kRoundRobin);
  EXPECT_EQ(engine->pick(small_vm(1), false), fleet.ptrs[0]);
  EXPECT_EQ(engine->pick(small_vm(2), false), fleet.ptrs[1]);
  EXPECT_EQ(engine->pick(small_vm(3), false), fleet.ptrs[2]);
  EXPECT_EQ(engine->pick(small_vm(4), false), fleet.ptrs[0]);
}

TEST_P(EngineTest, LeastLoadedSpreads) {
  // Load node 0 and make its utilization metric visible via tick.
  hv::Vm busy = small_vm(10);
  busy.vcpus = 6;
  ASSERT_TRUE(fleet.ptrs[0]->place_vm(busy));
  NodeBooks books{};
  for (auto* node : fleet.ptrs) node->tick(Seconds{0.0}, Seconds{1.0}, books);
  auto engine = make(SchedulerPolicy::kLeastLoaded);
  EXPECT_NE(engine->pick(small_vm(11), false), fleet.ptrs[0]);
}

TEST_P(EngineTest, ReliabilityAwareAvoidsRiskyNodes) {
  fleet.ptrs[0]->set_reliability(0.2);
  fleet.ptrs[1]->set_reliability(0.99);
  fleet.ptrs[2]->set_reliability(0.6);
  auto engine = make(SchedulerPolicy::kReliabilityAware);
  EXPECT_EQ(engine->pick(small_vm(), false), fleet.ptrs[1]);
}

TEST_P(EngineTest, EnergyAwareConsolidates) {
  hv::Vm busy = small_vm(10);
  busy.vcpus = 4;
  ASSERT_TRUE(fleet.ptrs[1]->place_vm(busy));
  NodeBooks books{};
  for (auto* node : fleet.ptrs) node->tick(Seconds{0.0}, Seconds{1.0}, books);
  auto engine = make(SchedulerPolicy::kEnergyAware);
  EXPECT_EQ(engine->pick(small_vm(11), false), fleet.ptrs[1]);
}

TEST_P(EngineTest, ReturnsNullWhenNothingFits) {
  auto engine = make(SchedulerPolicy::kLeastLoaded);
  hv::Vm huge = small_vm();
  huge.vcpus = 100;
  EXPECT_EQ(engine->pick(huge, false), nullptr);
}

TEST_P(EngineTest, EmptyFleetRejectsCleanly) {
  auto engine = make_placement_engine(GetParam(),
                                      SchedulerPolicy::kFirstFit);
  engine->bind({});
  EXPECT_EQ(engine->pick(small_vm(), false), nullptr);
}

TEST_P(EngineTest, ExcludeConstraintSkipsSource) {
  auto engine = make(SchedulerPolicy::kFirstFit);
  PlacementConstraint constraint;
  constraint.exclude = fleet.ptrs[0];
  EXPECT_EQ(engine->pick(small_vm(), false, constraint), fleet.ptrs[1]);
}

TEST_P(EngineTest, AllowedMaskRestrictsSlots) {
  auto engine = make(SchedulerPolicy::kFirstFit);
  const std::vector<std::uint8_t> allowed = {0, 0, 1};
  PlacementConstraint constraint;
  constraint.allowed = &allowed;
  EXPECT_EQ(engine->pick(small_vm(), false, constraint), fleet.ptrs[2]);
  const std::vector<std::uint8_t> none = {0, 0, 0};
  constraint.allowed = &none;
  EXPECT_EQ(engine->pick(small_vm(), false, constraint), nullptr);
}

TEST_P(EngineTest, DownNodeIsSkippedAndReappearsAfterReboot) {
  auto engine = make(SchedulerPolicy::kFirstFit);
  fleet.ptrs[0]->force_crash();
  engine->node_changed(fleet.ptrs[0]);
  EXPECT_EQ(engine->pick(small_vm(1), false), fleet.ptrs[1]);
  fleet.ptrs[0]->reboot();
  engine->node_changed(fleet.ptrs[0]);
  EXPECT_EQ(engine->pick(small_vm(2), false), fleet.ptrs[0]);
}

TEST_P(EngineTest, BindRejectsAFleetOutOfSlotOrder) {
  auto engine = make_placement_engine(GetParam(), SchedulerPolicy::kFirstFit);
  EXPECT_THROW(engine->bind({fleet.ptrs[1], fleet.ptrs[0], fleet.ptrs[2]}),
               std::invalid_argument);
  EXPECT_THROW(engine->bind({fleet.ptrs[1]}), std::invalid_argument);
}

TEST(IndexedScheduler, NodeChangedIgnoresANodeNotBoundAtItsSlot) {
  Fleet fleet;
  IndexedScheduler engine(SchedulerPolicy::kFirstFit);
  engine.bind({fleet.ptrs[0]});
  ASSERT_TRUE(fleet.ptrs[2]->place_vm(small_vm(7)));
  engine.node_changed(fleet.ptrs[2]);
  EXPECT_EQ(engine.self_check(), "");
  EXPECT_EQ(engine.pick(small_vm(8), false), fleet.ptrs[0]);
}

TEST(IndexedScheduler, SelfCheckPassesThroughMutations) {
  Fleet fleet;
  IndexedScheduler engine(SchedulerPolicy::kReliabilityAware);
  engine.bind(fleet.ptrs);
  EXPECT_EQ(engine.self_check(), "");
  ASSERT_TRUE(fleet.ptrs[1]->place_vm(small_vm(7)));
  engine.node_changed(fleet.ptrs[1]);
  EXPECT_EQ(engine.self_check(), "");
  fleet.ptrs[2]->set_reliability(0.3);
  engine.node_changed(fleet.ptrs[2]);
  engine.refresh_weights();
  EXPECT_EQ(engine.self_check(), "");
}

TEST(IndexedScheduler, SelfCheckDetectsUnsignaledMutation) {
  Fleet fleet;
  IndexedScheduler engine(SchedulerPolicy::kFirstFit);
  engine.bind(fleet.ptrs);
  ASSERT_TRUE(fleet.ptrs[0]->place_vm(small_vm(7)));
  // No node_changed: the index is now stale and must say so.
  EXPECT_NE(engine.self_check(), "");
}

TEST(RequestMapping, SlaToRequirements) {
  EXPECT_FALSE(requirements_for(trace::SlaClass::kBestEffort).critical);
  EXPECT_FALSE(requirements_for(trace::SlaClass::kStandard).critical);
  EXPECT_TRUE(requirements_for(trace::SlaClass::kCritical).critical);
}

TEST(RequestMapping, VmFromRequestCopiesFields) {
  trace::VmRequest request;
  request.id = 42;
  request.vcpus = 2;
  request.memory_mb = 2048.0;
  request.sla = trace::SlaClass::kCritical;
  request.arrival = Seconds{100.0};
  request.workload.name = "web";
  const hv::Vm vm = vm_from_request(request);
  EXPECT_EQ(vm.id, 42u);
  EXPECT_EQ(vm.vcpus, 2);
  EXPECT_DOUBLE_EQ(vm.memory_mb, 2048.0);
  EXPECT_TRUE(vm.requirements.critical);
  EXPECT_DOUBLE_EQ(vm.started_at.value, 100.0);
  EXPECT_EQ(vm.workload.name, "web");
}

TEST(SchedulerPolicies, PolicyNames) {
  EXPECT_STREQ(to_string(SchedulerPolicy::kFirstFit), "first-fit");
  EXPECT_STREQ(to_string(SchedulerPolicy::kReliabilityAware),
               "reliability-aware");
  EXPECT_STREQ(to_string(SchedulerEngine::kIndexed), "indexed");
  EXPECT_STREQ(to_string(SchedulerEngine::kReference), "reference");
  EXPECT_EQ(all_scheduler_policies().size(), 5u);
}

}  // namespace
}  // namespace uniserver::osk
