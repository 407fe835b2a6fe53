// Cross-cutting integration checks: EOP helpers, Cloud x VmMonitor
// wiring, the cloud's counters against its books, governor-on-node
// loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/governor.h"
#include "core/uniserver_node.h"
#include "hwmodel/chip_spec.h"
#include "hwmodel/eop.h"
#include "openstack/cloud.h"
#include "stress/profiles.h"
#include "telemetry/metrics.h"

namespace uniserver {
namespace {

using namespace uniserver::literals;

TEST(EopHelpers, UndervoltPercentRoundTrips) {
  const Volt vnom{0.98};
  for (double offset : {0.0, 1.5, 10.0, 25.0}) {
    const Volt v = hw::apply_undervolt_percent(vnom, offset);
    EXPECT_NEAR(hw::undervolt_percent(vnom, v), offset, 1e-12);
  }
  EXPECT_DOUBLE_EQ(hw::apply_undervolt_percent(vnom, 0.0).value, 0.98);
}

TEST(EopHelpers, EopEqualityAndPrinting) {
  hw::Eop a{Volt{0.9}, MegaHertz{2000.0}, 64_ms};
  hw::Eop b = a;
  EXPECT_EQ(a, b);
  b.refresh = 1500_ms;
  EXPECT_NE(a, b);
  std::ostringstream os;
  os << a;
  EXPECT_NE(os.str().find("0.9 V"), std::string::npos);
}

TEST(CloudMonitorIntegration, ResidentVmsAreTrackedAndRanked) {
  osk::CloudConfig config;
  config.policy = osk::SchedulerPolicy::kFirstFit;
  config.proactive_migration = false;
  config.tick = 60_s;
  hw::NodeSpec spec;
  spec.chip = hw::arm_soc_spec();
  auto cloud = osk::Cloud::make_uniform(config, spec, hv::HvConfig{}, 2, 1);

  trace::VmRequest small;
  small.id = 1;
  small.arrival = Seconds{0.0};
  small.lifetime = Seconds{7200.0};
  small.vcpus = 1;
  small.memory_mb = 512.0;
  small.sla = trace::SlaClass::kStandard;
  small.workload = stress::web_service_profile();
  trace::VmRequest big = small;
  big.id = 2;
  big.vcpus = 4;
  big.memory_mb = 16384.0;
  big.workload = stress::analytics_profile();

  cloud->run({small, big}, Seconds{1800.0});

  EXPECT_EQ(cloud->monitor().tracked_vms(), 2u);
  EXPECT_GT(cloud->monitor().usage(1).samples, 10u);
  // The big busy VM ranks more susceptible than the small idle one.
  const auto ranked = cloud->monitor().ranked_by_susceptibility();
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0], 2u);
}

TEST(CloudMonitorIntegration, DepartedVmsAreForgotten) {
  osk::CloudConfig config;
  config.policy = osk::SchedulerPolicy::kFirstFit;
  config.tick = 60_s;
  hw::NodeSpec spec;
  spec.chip = hw::arm_soc_spec();
  auto cloud = osk::Cloud::make_uniform(config, spec, hv::HvConfig{}, 1, 1);
  trace::VmRequest request;
  request.id = 1;
  request.arrival = Seconds{0.0};
  request.lifetime = Seconds{300.0};
  request.vcpus = 1;
  request.memory_mb = 512.0;
  request.sla = trace::SlaClass::kStandard;
  request.workload = stress::web_service_profile();
  cloud->run({request}, Seconds{1200.0});
  EXPECT_EQ(cloud->stats().completed, 1u);
  EXPECT_EQ(cloud->monitor().tracked_vms(), 0u);
}

TEST(CloudMonitorIntegration, OneSamplePerControlTickThroughSdcHits) {
  osk::CloudConfig config;
  config.policy = osk::SchedulerPolicy::kFirstFit;
  config.tick = 60_s;
  hv::HvConfig hv_config;
  hv_config.guest_sdc_survival = 1.0;  // every guest hit is survivable
  // Keep the relaxed channels relaxed, so hits keep coming.
  hv_config.channel_isolation_threshold_per_hour = 1e12;
  hw::NodeSpec spec;
  spec.chip = hw::arm_soc_spec();
  auto cloud = osk::Cloud::make_uniform(config, spec, hv_config, 3, 5);
  for (osk::ComputeNode* node : cloud->node_ptrs()) {
    hw::Eop eop = node->server().eop();
    eop.refresh = Seconds{5.0};
    node->hypervisor().apply_eop(eop);
  }

  // Arrivals over the first hours; lifetimes long enough that some VMs
  // outlive the 128-tick window and short enough that some depart.
  std::vector<trace::VmRequest> requests;
  for (std::uint64_t id = 1; id <= 24; ++id) {
    trace::VmRequest request;
    request.id = id;
    request.arrival = Seconds{450.0 * static_cast<double>(id)};
    request.lifetime = Seconds{id % 3 == 0 ? 2400.0 : 20000.0};
    request.vcpus = 1 + static_cast<int>(id % 2);
    request.memory_mb = 2048.0 * static_cast<double>(1 + id % 4);
    request.sla = trace::SlaClass::kStandard;
    request.workload = id % 2 == 0 ? stress::analytics_profile()
                                   : stress::web_service_profile();
    requests.push_back(request);
  }

  const std::size_t window = osk::VmMonitor::kWindow;
  std::map<std::uint64_t, int> arrived_at_tick;
  std::uint64_t max_hits = 0;
  int full_windows = 0;
  std::size_t next = 0;
  const int ticks = 300;
  for (int tick = 1; tick <= ticks; ++tick) {
    // One control tick, fed that tick's arrivals.
    const Seconds now = Seconds{60.0 * tick};
    std::vector<trace::VmRequest> batch;
    for (; next < requests.size() && requests[next].arrival.value <= now.value;
         ++next) {
      batch.push_back(requests[next]);
      arrived_at_tick[requests[next].id] = tick;
    }
    cloud->run(batch, now);
    ASSERT_EQ(cloud->now().value, now.value);

    const auto active = cloud->active_placements();
    ASSERT_EQ(cloud->monitor().tracked_vms(), active.size())
        << "tick " << tick;
    std::uint64_t hits = 0;
    for (const auto& placement : active) {
      const osk::VmUsage usage = cloud->monitor().usage(placement.id);
      const auto since = static_cast<std::size_t>(
          tick - arrived_at_tick.at(placement.id) + 1);
      ASSERT_EQ(usage.samples, std::min(since, window))
          << "vm " << placement.id << " tick " << tick;
      hits += usage.total_errors;
      if (usage.samples == window) ++full_windows;
    }
    max_hits = std::max(max_hits, hits);
  }
  // The run saw survivable hits, evacuations that moved VMs between
  // node ticks, and VMs that filled the window.
  EXPECT_GT(max_hits, 10u);
  EXPECT_GT(cloud->stats().migrations, 0u);
  EXPECT_GT(cloud->stats().completed, 0u);
  EXPECT_GT(full_windows, 0);
}

TEST(CloudTelemetry, CountersAreTheBooks) {
  // A deep undervolt under a rack power cap with serving on: organic
  // SDCs, crashes and evacuations, post-copy fallbacks, power
  // rejections, plus a flash crowd, an injected node crash, rack power
  // loss and EOP retreat. After every Cloud::run call each counter that
  // mirrors a book has grown by exactly that book (or, for the node
  // layers, its sum over the fleet), and by the end every book is
  // non-zero, so dropping any one publish fails here.
  osk::CloudConfig config;
  config.nodes_per_rack = 4;
  config.rack_power_cap = Watt{110.0};
  config.migration.dirty_rate = 0.6;
  config.serve.enabled = true;
  config.serve.requests_per_vcpu_hz = 0.05;
  hv::HvConfig hv_config;
  hv_config.hv_cpu_time_share = 0.5;
  hv_config.core_isolation_threshold_per_hour = 5.0;
  hw::NodeSpec spec;
  spec.chip = hw::arm_soc_spec();
  // Four kinds of node, by slot mod 4: plain; ECC DIMMs (masked DRAM
  // errors); guest checkpointing (restores) with frequent CPU SDCs; and
  // frequent CPU SDCs without selective protection (hypervisor-fatal
  // SDCs and guest kills). Odd slots also run DRAM refresh far past its
  // margin (decay errors, channel isolation).
  std::vector<std::unique_ptr<osk::ComputeNode>> nodes;
  Rng seeds(2024);
  for (int i = 0; i < 16; ++i) {
    hw::NodeSpec node_spec = spec;
    hv::HvConfig node_config = hv_config;
    node_spec.dimm.ecc = i % 4 == 1;
    if (i % 4 >= 2) {
      node_spec.chip.variation.cpu_sdc_rate_at_crash_per_s = 0.002;
      node_spec.chip.variation.cpu_sdc_mv_constant = 1000.0;
    }
    node_config.vm_checkpointing = i % 4 == 2;
    node_config.selective_protection = i % 4 != 3;
    nodes.push_back(std::make_unique<osk::ComputeNode>(
        "node-" + std::to_string(i), node_spec, node_config, seeds.next()));
  }
  auto cloud = std::make_unique<osk::Cloud>(config, std::move(nodes));
  int slot = 0;
  for (osk::ComputeNode* node : cloud->node_ptrs()) {
    hw::Eop eop = node->server().eop();
    eop.vdd = hw::apply_undervolt_percent(spec.chip.vdd_nominal, 15.0);
    if (slot++ % 2 == 1) eop.refresh = Seconds{5.0};
    node->hypervisor().apply_eop(eop);
  }

  const char* profiles[] = {"mcf", "milc", "namd", "h264ref"};
  Rng rng(99);
  std::vector<trace::VmRequest> requests;
  for (std::uint64_t id = 1; id <= 150; ++id) {
    trace::VmRequest request;
    request.id = id;
    request.arrival = Seconds{rng.uniform() * 10000.0};
    request.lifetime = Seconds{600.0 + rng.uniform() * 8000.0};
    request.vcpus = 1 + static_cast<int>(rng.uniform_u64(4));
    request.memory_mb = 512.0 * static_cast<double>(1 + rng.uniform_u64(6));
    request.sla = static_cast<trace::SlaClass>(rng.uniform_u64(3));
    request.workload = *stress::spec_profile(profiles[id % 4]);
    requests.push_back(request);
  }
  std::sort(requests.begin(), requests.end(),
            [](const trace::VmRequest& a, const trace::VmRequest& b) {
              return a.arrival.value < b.arrival.value;
            });

  const auto counter = [](const std::string& name) -> std::uint64_t {
    const telemetry::Counter* c =
        telemetry::MetricsRegistry::global().find_counter(name);
    return c == nullptr ? 0 : c->value();
  };
  const auto books = [&cloud] {
    const osk::CloudStats c = cloud->stats();
    const osk::MigrationStats& m = cloud->migrations().stats();
    const serve::ServeStats& s = cloud->serving()->stats();
    // The node books, summed over the fleet.
    hv::HvStats h;
    std::uint64_t retired = 0, isolated = 0;
    std::uint64_t correctable = 0, uncorrectable = 0, triggers = 0;
    for (osk::ComputeNode* node : cloud->node_ptrs()) {
      hv::Hypervisor& hypervisor = node->hypervisor();
      const hv::HvStats& n = hypervisor.stats();
      h.ticks += n.ticks;
      h.cache_ecc_masked += n.cache_ecc_masked;
      h.dram_ecc_masked += n.dram_ecc_masked;
      h.cpu_sdcs += n.cpu_sdcs;
      h.dram_errors_relaxed += n.dram_errors_relaxed;
      h.vm_kills += n.vm_kills;
      h.vm_restores += n.vm_restores;
      h.fatal_ticks += n.fatal_ticks;
      h.protection_saves += n.protection_saves;
      h.node_crashes += n.node_crashes;
      retired += static_cast<std::uint64_t>(hypervisor.retired_cores());
      isolated += static_cast<std::uint64_t>(hypervisor.isolated_channels());
      const daemons::HealthLog& log = hypervisor.healthlog();
      correctable += log.total_correctable();
      uncorrectable += log.total_uncorrectable();
      triggers += log.recharacterize_triggers();
    }
    return std::vector<std::pair<std::string, std::uint64_t>>{
        {"cloud.vms_submitted", c.submitted},
        {"cloud.vms_accepted", c.accepted},
        {"cloud.vms_rejected", c.rejected},
        {"cloud.vms_rejected_for_power", c.rejected_for_power},
        {"cloud.vms_completed", c.completed},
        {"cloud.vms_lost", c.lost_to_errors + c.lost_to_node_crash},
        {"cloud.evacuations", c.evacuations},
        {"cloud.migration_failures", c.migration_failures},
        {"cloud.node_crashes", c.node_crash_events},
        {"cloud.sla_violations", c.sla_violations},
        {"cloud.mig.submitted", m.submitted},
        {"cloud.mig.started", m.started},
        {"cloud.mig.completed", m.completed},
        {"cloud.mig.cancelled", m.cancelled},
        {"cloud.mig.postcopy_fallbacks", m.postcopy_fallbacks},
        {"serve.requests_generated", s.generated},
        {"serve.requests_completed", s.completed},
        {"serve.requests_dropped",
         s.dropped_overload + s.dropped_unroutable + s.dropped_lost},
        {"serve.slo_violations", s.slo_violations},
        {"serve.stalls", s.stalls},
        {"hv.ticks", h.ticks},
        {"hv.cache_ecc_masked", h.cache_ecc_masked},
        {"hv.dram_ecc_masked", h.dram_ecc_masked},
        {"hv.cpu_sdcs", h.cpu_sdcs},
        {"hv.dram_errors_relaxed", h.dram_errors_relaxed},
        {"hv.vm_kills", h.vm_kills},
        {"hv.vm_restores", h.vm_restores},
        {"hv.fatal_events", h.fatal_ticks},
        {"hv.protection_saves", h.protection_saves},
        {"hv.node_crashes", h.node_crashes},
        {"hv.cores_retired", retired},
        {"hv.channels_isolated", isolated},
        {"daemon.healthlog.vectors", h.ticks},
        {"daemon.healthlog.errors_correctable", correctable},
        {"daemon.healthlog.errors_uncorrectable", uncorrectable},
        {"daemon.healthlog.recharacterize_triggers", triggers},
    };
  };
  std::map<std::string, std::uint64_t> before;
  for (const auto& [name, book] : books()) before[name] = counter(name);

  std::size_t next = 0;
  for (int tick = 1; tick <= 200; ++tick) {
    const Seconds now{60.0 * tick};
    if (tick == 45) cloud->inject_request_burst(now, 20000);
    if (tick == 50) cloud->inject_node_crash(3);
    if (tick == 100) cloud->inject_rack_power_loss(5);
    if (tick == 150) cloud->inject_eop_retreat(9);
    std::vector<trace::VmRequest> batch;
    for (; next < requests.size() && requests[next].arrival.value <= now.value;
         ++next) {
      batch.push_back(requests[next]);
    }
    cloud->run(batch, now);
    for (const auto& [name, book] : books()) {
      ASSERT_EQ(counter(name) - before.at(name), book)
          << name << " after tick " << tick;
    }
  }
  for (const auto& [name, book] : books()) EXPECT_GT(book, 0u) << name;
}

TEST(GovernorOnNode, ClosedLoopDayStaysSafeAndSavesPower) {
  core::UniServerConfig config;
  config.node_spec.chip = hw::arm_soc_spec();
  config.shmoo.runs = 1;
  config.predictor_epochs = 10;
  core::UniServerNode node(config, 515);
  node.characterize();

  core::GovernorConfig governor_config;
  governor_config.hysteresis_ticks = 2;
  core::EopGovernor governor(governor_config);

  hv::Vm vm;
  vm.id = 1;
  vm.vcpus = 6;
  vm.memory_mb = 4096.0;
  vm.workload = stress::ldbc_profile();
  node.hypervisor().create_vm(vm);

  double power_sum = 0.0;
  int crashes = 0;
  for (int i = 0; i < 240; ++i) {
    const hw::Eop eop = governor.decide(
        node.margins(), node.predictor(), node.server().chip(),
        node.hypervisor().aggregate_signature(), 0.8,
        node.margins().current().safe_refresh);
    node.hypervisor().apply_eop(eop);
    const auto report = node.step(60_s);
    power_sum += report.avg_power.value;
    if (report.node_crash) ++crashes;
  }
  EXPECT_EQ(crashes, 0);
  // Undervolted: mean power clearly below the nominal steady state.
  const auto nominal = node.server().chip().power().steady_state(
      config.node_spec.chip.vdd_nominal, config.node_spec.chip.freq_nominal,
      node.hypervisor().aggregate_signature().activity, 6);
  const double mem_nominal = node.server().memory().nominal_power().value;
  EXPECT_LT(power_sum / 240.0,
            (nominal.power.value + mem_nominal) * 0.95);
}

}  // namespace
}  // namespace uniserver
