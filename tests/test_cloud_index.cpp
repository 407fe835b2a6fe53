// Cloud-level differential suite for the incremental placement index
// (ctest label: scheduler). The cloud signals only the nodes that
// changed: each tick's utilization and usable-core moves, the
// reliability moves of the slots with predictor history, and every
// allocate/release/reserve/crash/reboot. After every tick of a seeded
// storm (crashes, core retirements, daemon restarts, evacuations,
// migrations) the cloud's index must equal a freshly bound
// IndexedScheduler over the same nodes, pass its self-check and make
// the same pick for a fixed probe set; each node's reliability must
// equal the predictor's full-fleet formula, and the running node-book
// sums must equal a walk of the fleet.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "hwmodel/chip_spec.h"
#include "openstack/cloud.h"
#include "openstack/scheduler_index.h"
#include "stress/profiles.h"

namespace uniserver::osk {
namespace {

hw::NodeSpec node_spec() {
  hw::NodeSpec spec;
  spec.chip = hw::arm_soc_spec();
  return spec;
}

/// Cores retire after 10 correctable errors per hour, so a node parked
/// just above its idle crash voltage retires cores within hours.
hv::HvConfig storm_hv() {
  hv::HvConfig config;
  config.core_isolation_threshold_per_hour = 10.0;
  return config;
}

/// Parks a node 1 mV above the crash voltage of an idle signature: the
/// cache ECC canary fires while it is idle, and a guest can crash it.
void park_near_crash(ComputeNode* node) {
  hw::Eop eop = node->server().eop();
  eop.vdd = node->server().chip().system_crash_voltage(
                hw::idle_signature(), node->server().spec().chip.freq_nominal) +
            Volt::from_mv(1.0);
  node->hypervisor().apply_eop(eop);
}

const IndexedScheduler& index_of(const Cloud& cloud) {
  return dynamic_cast<const IndexedScheduler&>(cloud.placement_engine());
}

/// The probe VMs every check asks both indexes to place.
std::vector<hv::Vm> probe_vms() {
  std::vector<hv::Vm> probes;
  std::uint64_t id = 1'000'000;
  for (const int vcpus : {1, 2, 4, 8}) {
    for (const double memory_mb : {512.0, 4096.0, 16384.0}) {
      hv::Vm vm;
      vm.id = id++;
      vm.vcpus = vcpus;
      vm.memory_mb = memory_mb;
      probes.push_back(vm);
    }
  }
  return probes;
}

/// Every cross-check of the suite, after one control-loop tick. Returns
/// "" when all hold, else the first failure.
std::string check_against_walks(Cloud& cloud) {
  const IndexedScheduler& incremental = index_of(cloud);
  IndexedScheduler fresh(incremental.policy());
  fresh.bind(cloud.node_ptrs());
  if (const std::string diff = incremental.differs_from(fresh); !diff.empty()) {
    return "index vs fresh bind: " + diff;
  }
  if (const std::string err = incremental.self_check(); !err.empty()) {
    return "self_check: " + err;
  }
  // A fresh engine's round-robin cursor starts at 0; the probes compare
  // the order-defined policies.
  if (incremental.policy() != SchedulerPolicy::kRoundRobin) {
    for (const hv::Vm& vm : probe_vms()) {
      for (const bool critical : {false, true}) {
        if (incremental.peek(vm, critical) != fresh.peek(vm, critical)) {
          return "probe " + std::to_string(vm.vcpus) + " vCPU / " +
                 std::to_string(vm.memory_mb) + " MB picks differ";
        }
      }
    }
  }
  NodeBooks walk{};
  const std::vector<const ComputeNode*> nodes = cloud.node_views();
  for (const ComputeNode* node : nodes) {
    const NodeBooks books = node->books();
    for (std::size_t i = 0; i < kNodeBooks; ++i) walk[i] += books[i];
  }
  for (std::size_t i = 0; i < kNodeBooks; ++i) {
    if (cloud.node_books()[i] != walk[i]) {
      return "node book " + std::to_string(i) + " running sum " +
             std::to_string(cloud.node_books()[i]) + " vs walk " +
             std::to_string(walk[i]);
    }
  }
  for (std::size_t slot = 0; slot < nodes.size(); ++slot) {
    const double want = std::clamp(
        1.0 - cloud.predictor().risk(slot, cloud.now()), 0.0, 1.0);
    if (nodes[slot]->metrics().reliability != want) {
      return nodes[slot]->name() + " reliability " +
             std::to_string(nodes[slot]->metrics().reliability) +
             " vs predictor " + std::to_string(want);
    }
  }
  return {};
}

/// Writes `count` error records straight to a node's HealthLog, the
/// way an injected burst does.
void record_errors(ComputeNode* node, double at, daemons::Severity severity,
                   int count) {
  for (int e = 0; e < count; ++e) {
    node->hypervisor().healthlog().record_error(daemons::ErrorEvent{
        Seconds{at}, daemons::Component::kCache, severity, 0});
  }
}

trace::VmRequest request(std::uint64_t id, double arrival, Rng& rng) {
  static const char* const kProfiles[] = {"mcf", "milc", "namd", "h264ref"};
  trace::VmRequest r;
  r.id = id;
  r.arrival = Seconds{arrival};
  r.lifetime = Seconds{600.0 + rng.uniform() * 5400.0};
  r.vcpus = 1 + static_cast<int>(rng.uniform_u64(4));
  r.memory_mb = 512.0 * static_cast<double>(1 + rng.uniform_u64(8));
  r.sla = static_cast<trace::SlaClass>(rng.uniform_u64(3));
  r.workload = *stress::spec_profile(kProfiles[id % 4]);
  return r;
}

/// What one storm exercised, so the suite can insist it bit.
struct Coverage {
  int ticks{0};
  std::uint64_t crashes{0};
  /// Core retirements in a tick that moved neither the node's
  /// utilization nor its reliability: only the usable-core signal
  /// re-indexes those.
  std::uint64_t silent_retirements{0};
  std::uint64_t evacuations{0};
  std::uint64_t migrations{0};
  bool reliability_moved{false};
};

/// One seeded storm under `policy`: 16 nodes in racks of 4, the upper
/// four parked near their crash voltage, VM arrivals, and between ticks
/// error bursts, crashes, daemon restarts, rack power losses and EOP
/// retreats. Checks every tick; returns the first failure, or "".
std::string run_storm(SchedulerPolicy policy, std::uint64_t seed,
                      Coverage& coverage) {
  constexpr int kNodes = 16;
  constexpr int kTicks = 360;
  CloudConfig config;
  config.policy = policy;
  config.nodes_per_rack = 4;
  config.tick = Seconds{60.0};
  std::vector<std::unique_ptr<ComputeNode>> fleet;
  Rng seeds(seed);
  for (int i = 0; i < kNodes; ++i) {
    fleet.push_back(std::make_unique<ComputeNode>(
        "node-" + std::to_string(i), static_cast<std::size_t>(i), node_spec(),
        storm_hv(), seeds.next()));
  }
  Cloud cloud(config, std::move(fleet));
  for (int i = 12; i < kNodes; ++i) {
    park_near_crash(cloud.node_ptrs()[static_cast<std::size_t>(i)]);
  }

  Rng rng(seed ^ 0x5EED);
  std::uint64_t next_id = 1;
  for (int tick = 1; tick <= kTicks; ++tick) {
    const double now = 60.0 * tick;
    std::vector<trace::VmRequest> batch;
    const std::uint64_t arrivals = rng.uniform_u64(3);
    for (std::uint64_t a = 0; a < arrivals; ++a) {
      batch.push_back(request(next_id++, now - rng.uniform() * 60.0, rng));
    }
    // The last node keeps failing its health checks: its risk stays at
    // 1 and its reliability at exactly 0, so a core it retires while
    // idle moves neither of its weight inputs.
    record_errors(cloud.node_ptrs().back(), now - 60.0,
                  daemons::Severity::kCrash, 25);
    const int node = static_cast<int>(rng.uniform_u64(kNodes));
    switch (rng.uniform_u64(24)) {
      case 0:
      case 1:
      case 2:
        // An error burst on the node's HealthLog, outside any tick.
        record_errors(cloud.node_ptrs()[static_cast<std::size_t>(node)],
                      now - 60.0,
                      rng.uniform_u64(3) == 0 ? daemons::Severity::kCrash
                                              : daemons::Severity::kCorrectable,
                      static_cast<int>(5 + rng.uniform_u64(40)));
        break;
      case 3:
        cloud.inject_node_crash(node);
        break;
      case 4:
      case 5:
        cloud.inject_daemon_restart(node);
        break;
      case 6:
        cloud.inject_rack_power_loss(node);
        break;
      case 7:
        cloud.inject_eop_retreat(node);
        break;
      default:
        break;
    }

    const std::vector<ComputeNode*> nodes = cloud.node_ptrs();
    std::vector<NodeMetrics> metrics_before;
    std::vector<int> retired_before;
    for (const ComputeNode* n : nodes) {
      metrics_before.push_back(n->metrics());
      retired_before.push_back(n->hypervisor().retired_cores());
    }

    cloud.run(batch, Seconds{now});

    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const NodeMetrics& was = metrics_before[i];
      const NodeMetrics is = nodes[i]->metrics();
      if (is.reliability != was.reliability) coverage.reliability_moved = true;
      if (nodes[i]->hypervisor().retired_cores() > retired_before[i] &&
          is.reliability == was.reliability &&
          is.utilization == was.utilization) {
        ++coverage.silent_retirements;
      }
    }
    ++coverage.ticks;
    if (const std::string err = check_against_walks(cloud); !err.empty()) {
      return "tick " + std::to_string(tick) + ": " + err;
    }
  }
  const CloudStats stats = cloud.stats();
  coverage.crashes += stats.node_crash_events;
  coverage.evacuations += stats.evacuations;
  coverage.migrations += stats.migrations;
  return {};
}

class IncrementalIndexStorm
    : public ::testing::TestWithParam<SchedulerPolicy> {};

std::string policy_name(
    const ::testing::TestParamInfo<SchedulerPolicy>& info) {
  std::string name = to_string(info.param);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, IncrementalIndexStorm,
                         ::testing::ValuesIn(all_scheduler_policies()),
                         policy_name);

TEST_P(IncrementalIndexStorm, EqualsAFreshlyBoundIndexAfterEveryTick) {
  Coverage coverage;
  for (const std::uint64_t seed : {11u, 29u}) {
    const std::string err = run_storm(GetParam(), seed, coverage);
    ASSERT_EQ(err, "") << "seed " << seed;
  }
  // The storms must reach every path the index is signalled from.
  EXPECT_EQ(coverage.ticks, 720);
  EXPECT_GT(coverage.crashes, 0u);
  EXPECT_GT(coverage.silent_retirements, 0u);
  EXPECT_GT(coverage.evacuations, 0u);
  EXPECT_GT(coverage.migrations, 0u);
  EXPECT_TRUE(coverage.reliability_moved);
}

TEST(IncrementalIndex, IdleNodeThatRetiresACoreIsReindexed) {
  // A node with no VMs keeps utilization 0 when a core retires, and a
  // node whose risk is already 1 keeps reliability 0 however many errors
  // it logs, so only the usable-core signal tells the index that its
  // free vCPUs dropped.
  CloudConfig config;
  config.policy = SchedulerPolicy::kReliabilityAware;
  config.tick = Seconds{60.0};
  auto cloud = Cloud::make_uniform(config, node_spec(), storm_hv(), 2, 3);
  ComputeNode* node = cloud->node_ptrs()[1];
  // Tick 1 at the nominal point: the crash records pin the risk at 1.
  record_errors(node, 0.0, daemons::Severity::kCrash, 25);
  cloud->run({}, Seconds{60.0});
  ASSERT_EQ(node->metrics().reliability, 0.0);
  ASSERT_EQ(node->hypervisor().retired_cores(), 0);
  ASSERT_EQ(check_against_walks(*cloud), "");

  // Tick 2 just above the crash voltage: the cache ECC storm retires
  // cores, and neither weight input moves.
  park_near_crash(node);
  const int free_before = node->free_vcpus();
  record_errors(node, 60.0, daemons::Severity::kCrash, 25);
  cloud->run({}, Seconds{120.0});
  ASSERT_TRUE(node->up());
  ASSERT_GT(node->hypervisor().retired_cores(), 0);
  EXPECT_EQ(node->hypervisor().vm_count(), 0u);
  EXPECT_EQ(node->metrics().utilization, 0.0);
  EXPECT_EQ(node->metrics().reliability, 0.0);
  EXPECT_LT(node->free_vcpus(), free_before);
  // The index holds the node's new free vCPUs: a VM as wide as the node
  // was is refused there.
  EXPECT_EQ(check_against_walks(*cloud), "");
  hv::Vm wide;
  wide.id = 1;
  wide.vcpus = free_before;
  wide.memory_mb = 512.0;
  EXPECT_NE(index_of(*cloud).peek(wide, false), node);
}

TEST(IncrementalIndex, RepairedAndRestartedNodesReturnToFullReliability) {
  CloudConfig config;
  config.policy = SchedulerPolicy::kReliabilityAware;
  config.proactive_migration = false;
  config.tick = Seconds{60.0};
  auto cloud = Cloud::make_uniform(config, node_spec(), hv::HvConfig{}, 4, 5);
  const std::vector<ComputeNode*> nodes = cloud->node_ptrs();
  const auto burst = [&](std::size_t slot, double at) {
    for (int e = 0; e < 10; ++e) {
      nodes[slot]->hypervisor().healthlog().record_error(daemons::ErrorEvent{
          Seconds{at}, daemons::Component::kDram,
          daemons::Severity::kUncorrectable, 0});
    }
  };
  burst(1, 30.0);
  burst(2, 30.0);
  cloud->run({}, Seconds{60.0});
  ASSERT_LT(nodes[1]->metrics().reliability, 1.0);
  ASSERT_LT(nodes[2]->metrics().reliability, 1.0);
  ASSERT_EQ(check_against_walks(*cloud), "");

  // Slot 1's daemons restart; slot 2 crashes and is repaired 300 s on.
  cloud->inject_daemon_restart(1);
  cloud->inject_node_crash(2);
  double now = 60.0;
  while (!nodes[2]->up()) {
    now += 60.0;
    cloud->run({}, Seconds{now});
    ASSERT_EQ(check_against_walks(*cloud), "") << "t=" << now;
  }
  now += 60.0;
  cloud->run({}, Seconds{now});
  EXPECT_EQ(nodes[1]->metrics().reliability, 1.0);
  EXPECT_EQ(nodes[2]->metrics().reliability, 1.0);
  EXPECT_TRUE(cloud->predictor().risky_slots().empty());
  // Back at their (weight, slot) places: a fresh bind orders the same.
  EXPECT_EQ(check_against_walks(*cloud), "");
}

}  // namespace
}  // namespace uniserver::osk
