#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "hwmodel/chip_spec.h"
#include "openstack/cloud.h"
#include "openstack/node.h"
#include "stress/profiles.h"
#include "trace/arrivals.h"

namespace uniserver::osk {
namespace {

using namespace uniserver::literals;

hw::NodeSpec node_spec() {
  hw::NodeSpec spec;
  spec.chip = hw::arm_soc_spec();
  return spec;
}

hv::Vm make_vm(std::uint64_t id, int vcpus = 2) {
  hv::Vm vm;
  vm.id = id;
  vm.vcpus = vcpus;
  vm.memory_mb = 2048.0;
  vm.workload = stress::web_service_profile();
  return vm;
}

TEST(ComputeNodeTest, CapacityViews) {
  ComputeNode node("n0", 0, node_spec(), hv::HvConfig{}, 1);
  EXPECT_EQ(node.total_vcpus(), 8);
  EXPECT_EQ(node.used_vcpus(), 0);
  EXPECT_NEAR(node.memory_capacity_mb(), 4.0 * 8192.0, 1.0);
  ASSERT_TRUE(node.place_vm(make_vm(1, 3)));
  EXPECT_EQ(node.free_vcpus(), 5);
  EXPECT_NEAR(node.used_memory_mb(), 2048.0, 1e-9);
  EXPECT_TRUE(node.remove_vm(1));
  EXPECT_EQ(node.used_vcpus(), 0);
  // The capacity is the server's: all its bits over 2^23, exactly,
  // whatever split of reliable and relaxed channels is pinned.
  const double whole_mb =
      static_cast<double>(node.server().memory().total_bits()) / 8.0 /
      (1024.0 * 1024.0);
  EXPECT_EQ(node.memory_capacity_mb(), whole_mb);
  node.server().pin_channel_reliable(1, true);
  EXPECT_EQ(node.memory_capacity_mb(), whole_mb);
}

TEST(ComputeNodeTest, EmptiedNodeCommitsNoMemory) {
  // Adding and then subtracting these sizes in double arithmetic leaves
  // a residue of about -4.5e-13 MB; an emptied node must read zero.
  ComputeNode node("n0", 0, node_spec(), hv::HvConfig{}, 1);
  const double sizes_mb[] = {512.3, 1024.7, 3000.9};
  for (std::uint64_t id = 1; id <= 3; ++id) {
    hv::Vm vm = make_vm(id, 1);
    vm.memory_mb = sizes_mb[id - 1];
    ASSERT_TRUE(node.place_vm(vm));
  }
  for (std::uint64_t id = 1; id <= 3; ++id) ASSERT_TRUE(node.remove_vm(id));
  EXPECT_EQ(node.used_memory_mb(), 0.0);
  EXPECT_EQ(node.free_memory_mb(), node.memory_capacity_mb());
}

TEST(ComputeNodeTest, PlacementFiltersCapacity) {
  ComputeNode node("n0", 0, node_spec(), hv::HvConfig{}, 1);
  EXPECT_FALSE(node.place_vm(make_vm(1, 9)));
  hv::Vm fat = make_vm(2, 1);
  fat.memory_mb = 1e9;
  EXPECT_FALSE(node.place_vm(fat));
}

TEST(ComputeNodeTest, FitsExactlyFullCapacityAroundAHeldReservation) {
  ComputeNode node("n0", 0, node_spec(), hv::HvConfig{}, 1);
  ASSERT_TRUE(node.place_vm(make_vm(1, 3)));
  ASSERT_TRUE(node.reserve(2, 1024.0));
  const int vcpus = node.free_vcpus();
  const double memory_mb = node.free_memory_mb();
  EXPECT_EQ(vcpus, 3);
  EXPECT_TRUE(node.fits(vcpus, memory_mb));
  EXPECT_FALSE(node.fits(vcpus + 1, memory_mb));
  EXPECT_FALSE(node.fits(vcpus, std::nextafter(memory_mb, 1e12)));
  // A reservation of exactly the rest leaves nothing that fits.
  ASSERT_TRUE(node.reserve(vcpus, memory_mb));
  EXPECT_TRUE(node.fits(0, 0.0));
  EXPECT_FALSE(node.fits(1, 0.0));
  EXPECT_FALSE(node.fits(0, 1.0));
  node.unreserve(2, 1024.0);
  EXPECT_TRUE(node.fits(2, 1024.0));
  EXPECT_FALSE(node.fits(3, 1024.0));
  node.force_crash();
  EXPECT_FALSE(node.fits(0, 0.0));
}

TEST(ComputeNodeTest, MetricsTrackUtilizationAndAvailability) {
  ComputeNode node("n0", 0, node_spec(), hv::HvConfig{}, 1);
  node.place_vm(make_vm(1, 4));
  NodeBooks books{};
  node.tick(0_s, 60_s, books);
  EXPECT_NEAR(node.metrics().utilization, 0.5, 1e-9);
  EXPECT_NEAR(node.metrics().availability, 1.0, 1e-9);
  EXPECT_GT(node.metrics().energy_kwh, 0.0);
}

TEST(ComputeNodeTest, CrashLosesVmsAndRepairs) {
  ComputeNode node("n0", 0, node_spec(), hv::HvConfig{}, 1);
  node.place_vm(make_vm(1, 4));
  // Force a crash by dropping the voltage absurdly low.
  hw::Eop eop = node.server().eop();
  eop.vdd = Volt{node.server().spec().chip.vdd_nominal.value * 0.5};
  node.hypervisor().apply_eop(eop);

  NodeBooks books{};
  const auto result = node.tick(0_s, 60_s, books);
  EXPECT_TRUE(result.crashed);
  EXPECT_EQ(result.vms_lost.size(), 1u);
  EXPECT_FALSE(node.up());
  EXPECT_EQ(node.hypervisor().vm_count(), 0u);
  // Placement on a down node fails.
  EXPECT_FALSE(node.place_vm(make_vm(2, 1)));

  // Repair takes 5 minutes of downtime.
  node.hypervisor().apply_eop(
      hw::Eop{node.server().spec().chip.vdd_nominal,
              node.server().spec().chip.freq_nominal, 64_ms});
  int ticks_down = 0;
  double t = 60.0;
  while (!node.up()) {
    node.tick(Seconds{t}, 60_s, books);
    t += 60.0;
    ++ticks_down;
  }
  EXPECT_EQ(ticks_down, 5);
  EXPECT_LT(node.metrics().availability, 1.0);
  EXPECT_TRUE(node.place_vm(make_vm(2, 1)));
}

TEST(ComputeNodeTest, OrganicCrashLeavesTheSameBooksAsForceCrash) {
  // Two identical nodes, each with residents and an inbound-migration
  // reservation: one crashes organically (tick past the crash margin),
  // the other is force-crashed. Both must drop every VM, reservation
  // and committed capacity, and stay down for the same repair time.
  ComputeNode organic("n0", 0, node_spec(), hv::HvConfig{}, 1);
  ComputeNode forced("n1", 1, node_spec(), hv::HvConfig{}, 1);
  for (ComputeNode* node : {&organic, &forced}) {
    ASSERT_TRUE(node->place_vm(make_vm(1, 2)));
    ASSERT_TRUE(node->place_vm(make_vm(2, 3)));
    ASSERT_TRUE(node->reserve(2, 1024.0));
  }
  const hw::Eop nominal = organic.server().eop();
  hw::Eop deep = nominal;
  deep.vdd = Volt{organic.server().spec().chip.vdd_nominal.value * 0.5};
  organic.hypervisor().apply_eop(deep);

  NodeBooks books{};
  const auto result = organic.tick(0_s, 60_s, books);
  ASSERT_TRUE(result.crashed);
  EXPECT_EQ(result.vms_lost, forced.force_crash());

  const auto repair_ticks = [&books](ComputeNode& node) {
    int ticks = 0;
    for (double t = 60.0; !node.up() && ticks < 100; t += 60.0) {
      node.tick(Seconds{t}, 60_s, books);
      ++ticks;
    }
    return ticks;
  };
  organic.hypervisor().apply_eop(nominal);
  for (ComputeNode* node : {&organic, &forced}) {
    EXPECT_FALSE(node->up());
    EXPECT_EQ(node->hypervisor().vm_count(), 0u);
    EXPECT_EQ(node->used_vcpus(), 0);
    EXPECT_DOUBLE_EQ(node->used_memory_mb(), 0.0);
    EXPECT_EQ(node->reserved_vcpus(), 0);
    EXPECT_DOUBLE_EQ(node->reserved_memory_mb(), 0.0);
    EXPECT_EQ(node->free_vcpus(), node->total_vcpus());
    // kRepairTime is 300 s: five 60 s windows down.
    EXPECT_EQ(repair_ticks(*node), 5);
    EXPECT_TRUE(node->up());
  }
}

TEST(ComputeNodeTest, ForceCrashLosesResidentsAndIsIdempotent) {
  ComputeNode node("n0", 0, node_spec(), hv::HvConfig{}, 1);
  node.place_vm(make_vm(1, 2));
  node.place_vm(make_vm(2, 2));
  const auto lost = node.force_crash();
  EXPECT_EQ(lost.size(), 2u);
  EXPECT_FALSE(node.up());
  EXPECT_EQ(node.hypervisor().vm_count(), 0u);
  // A second crash on a node that is already down loses nothing.
  EXPECT_TRUE(node.force_crash().empty());
  // The node repairs on the usual schedule afterwards.
  double t = 0.0;
  NodeBooks books{};
  while (!node.up() && t < 3600.0) {
    node.tick(Seconds{t}, 60_s, books);
    t += 60.0;
  }
  EXPECT_TRUE(node.up());
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

/// Index of the node hosting `placement` in the cloud's fleet order.
int node_index_of(const Cloud& cloud, const ComputeNode* node) {
  const auto views = cloud.node_views();
  const auto it = std::find(views.begin(), views.end(), node);
  return it == views.end() ? -1
                           : static_cast<int>(it - views.begin());
}

TEST(CloudCrashInjectionTest, MidFlightCrashKeepsBooksBalanced) {
  // VMs in flight, then the node under them dies between ticks: the
  // lost VMs must land in lost_to_node_crash, vanish from the active
  // placements, and leave the books balanced so the rest of the
  // campaign can finish normally.
  auto cloud = Cloud::make_uniform(CloudConfig{}, node_spec(),
                                   hv::HvConfig{}, 3, 7);
  std::vector<trace::VmRequest> requests;
  for (std::uint64_t id = 1; id <= 6; ++id) {
    requests.push_back(request_at(id, 0.0, 7200.0));
  }
  cloud->run(requests, Seconds{120.0});
  ASSERT_EQ(cloud->stats().accepted, 6u);
  const auto before = cloud->active_placements();
  ASSERT_EQ(before.size(), 6u);

  const int victim = node_index_of(*cloud, before.front().node);
  ASSERT_GE(victim, 0);
  std::uint64_t resident = 0;
  for (const auto& placement : before) {
    if (placement.node == before.front().node) ++resident;
  }
  cloud->inject_node_crash(victim);

  const auto& stats = cloud->stats();
  EXPECT_EQ(stats.node_crash_events, 1u);
  EXPECT_EQ(stats.lost_to_node_crash, resident);
  const auto after = cloud->active_placements();
  EXPECT_EQ(after.size(), 6u - resident);
  for (const auto& placement : after) {
    EXPECT_NE(placement.node, before.front().node);
  }
  EXPECT_EQ(stats.accepted,
            stats.completed + stats.lost_to_errors +
                stats.lost_to_node_crash + after.size());

  // The campaign continues: the survivors run to completion.
  cloud->run({}, Seconds{8000.0});
  EXPECT_EQ(cloud->stats().completed, 6u - resident);
  EXPECT_TRUE(cloud->active_placements().empty());
}

TEST(CloudCrashInjectionTest, CrashOnDownNodeIsNoOp) {
  auto cloud = Cloud::make_uniform(CloudConfig{}, node_spec(),
                                   hv::HvConfig{}, 2, 7);
  cloud->run({request_at(1, 0.0, 7200.0)}, Seconds{120.0});
  const int victim =
      node_index_of(*cloud, cloud->active_placements().front().node);
  cloud->inject_node_crash(victim);
  EXPECT_EQ(cloud->stats().node_crash_events, 1u);
  // Down already: a second hit must not double-count the crash.
  cloud->inject_node_crash(victim);
  EXPECT_EQ(cloud->stats().node_crash_events, 1u);
  // Out-of-range indices are ignored.
  cloud->inject_node_crash(-1);
  cloud->inject_node_crash(99);
  EXPECT_EQ(cloud->stats().node_crash_events, 1u);
}

TEST(CloudCrashInjectionTest, SurvivorsAbsorbLoadAfterFleetwideCrash) {
  // Kill every node but one mid-flight; new arrivals must still be
  // servable by the survivor and the books must stay balanced.
  auto cloud = Cloud::make_uniform(CloudConfig{}, node_spec(),
                                   hv::HvConfig{}, 3, 7);
  cloud->run({request_at(1, 0.0, 7200.0)}, Seconds{120.0});
  const ComputeNode* home = cloud->active_placements().front().node;
  const auto views = cloud->node_views();
  for (int i = 0; i < static_cast<int>(views.size()); ++i) {
    if (views[static_cast<std::size_t>(i)] != home) {
      cloud->inject_node_crash(i);
    }
  }
  EXPECT_EQ(cloud->stats().node_crash_events, 2u);
  EXPECT_EQ(cloud->stats().lost_to_node_crash, 0u);

  cloud->run({request_at(2, 180.0, 600.0)}, Seconds{1000.0});
  const auto& stats = cloud->stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.accepted, stats.completed + stats.lost_to_errors +
                                stats.lost_to_node_crash +
                                cloud->active_placements().size());
}

TEST(CloudCrashInjectionTest, DaemonRestartWipesHealthHistory) {
  auto cloud = Cloud::make_uniform(CloudConfig{}, node_spec(),
                                   hv::HvConfig{}, 2, 7);
  auto nodes = cloud->node_ptrs();
  daemons::HealthLog& log = nodes[0]->hypervisor().healthlog();
  daemons::ErrorEvent event;
  event.timestamp = Seconds{10.0};
  event.component = daemons::Component::kCache;
  event.severity = daemons::Severity::kCorrectable;
  log.record_error(event);
  daemons::InfoVector vector;
  vector.timestamp = Seconds{10.0};
  vector.ipc = 1.5;
  log.record(vector);
  ASSERT_FALSE(log.errors().empty());
  ASSERT_EQ(log.aggregate(Seconds{0.0}).vectors, 1u);
  const std::uint64_t total = log.total_correctable();

  cloud->inject_daemon_restart(0);
  // The in-memory logfile is gone; lifetime totals survive the restart
  // (they live with the metrics pipeline, not the daemon).
  EXPECT_TRUE(log.errors().empty());
  EXPECT_EQ(log.aggregate(Seconds{0.0}).vectors, 0u);
  EXPECT_EQ(log.latest().ipc, 0.0);
  EXPECT_EQ(log.total_correctable(), total);
}

TEST(ComputeNodeTest, ReliabilityClamped) {
  ComputeNode node("n0", 0, node_spec(), hv::HvConfig{}, 1);
  node.set_reliability(5.0);
  EXPECT_DOUBLE_EQ(node.metrics().reliability, 1.0);
  node.set_reliability(-3.0);
  EXPECT_DOUBLE_EQ(node.metrics().reliability, 0.0);
}

}  // namespace
}  // namespace uniserver::osk
