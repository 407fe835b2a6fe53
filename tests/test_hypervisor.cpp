#include "hypervisor/hypervisor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <string>
#include <tuple>

#include "common/rng.h"
#include "core/ecosystem.h"
#include "hwmodel/chip_spec.h"
#include "hypervisor/footprint.h"
#include "openstack/node.h"
#include "stress/profiles.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace uniserver::hv {
namespace {

using namespace uniserver::literals;

hw::NodeSpec node_spec() {
  hw::NodeSpec spec;
  spec.chip = hw::arm_soc_spec();
  return spec;
}

Vm make_vm(std::uint64_t id, int vcpus = 2, double memory_mb = 4096.0,
           bool critical = false) {
  Vm vm;
  vm.id = id;
  vm.name = "vm-" + std::to_string(id);
  vm.vcpus = vcpus;
  vm.memory_mb = memory_mb;
  vm.workload = stress::ldbc_profile();
  vm.requirements.critical = critical;
  return vm;
}

TEST(FootprintModelTest, ShareStaysBelowSevenPercent) {
  const FootprintModel model;
  // Any plausible population: 0-8 VMs at 512 MB .. 16 GB resident each.
  for (std::size_t vms : {0u, 1u, 2u, 4u, 8u}) {
    for (double per_vm_mb : {512.0, 2048.0, 6144.0, 16384.0}) {
      const double vm_mb = per_vm_mb * static_cast<double>(vms);
      EXPECT_LT(model.hypervisor_share(vms, vm_mb), 0.07)
          << vms << " VMs, " << vm_mb << " MB";
    }
  }
}

TEST(FootprintModelTest, FootprintGrowsWithGuests) {
  const FootprintModel model;
  EXPECT_GT(model.hypervisor_mb(4, 16384.0), model.hypervisor_mb(1, 2048.0));
  EXPECT_GT(model.total_utilized_mb(4, 16384.0), 16384.0);
}

TEST(HypervisorDomains, PinsMinimalChannels) {
  hw::ServerNode node(node_spec(), 1);
  Hypervisor hypervisor(node, HvConfig{}, 1);
  const double channel_mb = node.channel_capacity_mb(0);
  // The empty hypervisor plus headroom fits in one channel.
  EXPECT_EQ(node.reliable_channels(), 1);
  EXPECT_TRUE(node.channel_reliable(0));
  // A critical VM of one channel's size spills into a second.
  ASSERT_TRUE(hypervisor.create_vm(make_vm(1, 2, channel_mb, true)));
  EXPECT_EQ(node.reliable_channels(), 2);
  EXPECT_TRUE(node.channel_reliable(1));
  // Without the reliable domain every channel follows the EOP.
  hw::ServerNode relaxed(node_spec(), 1);
  HvConfig config;
  config.use_reliable_domain = false;
  Hypervisor unpinned(relaxed, config, 1);
  ASSERT_TRUE(unpinned.create_vm(make_vm(1, 2, channel_mb, true)));
  EXPECT_EQ(relaxed.reliable_channels(), 0);
}

TEST(HypervisorDomains, CapacityAccounting) {
  hw::ServerNode node(node_spec(), 1);
  const double total =
      node.reliable_capacity_mb() + node.relaxed_capacity_mb();
  Hypervisor hypervisor(node, HvConfig{}, 1);
  EXPECT_NEAR(node.reliable_capacity_mb() + node.relaxed_capacity_mb(),
              total, 1e-6);
  EXPECT_GT(node.reliable_capacity_mb(), 0.0);
}

class HypervisorFixture : public ::testing::Test {
 protected:
  HypervisorFixture()
      : node_(node_spec(), 2), hypervisor_(node_, HvConfig{}, 2) {}
  hw::ServerNode node_;
  Hypervisor hypervisor_;
};

TEST_F(HypervisorFixture, VmLifecycleRespectsCapacity) {
  EXPECT_TRUE(hypervisor_.create_vm(make_vm(1, 4)));
  EXPECT_TRUE(hypervisor_.create_vm(make_vm(2, 4)));
  // 8 cores are committed; a 9th vCPU does not fit.
  EXPECT_FALSE(hypervisor_.create_vm(make_vm(3, 1)));
  EXPECT_FALSE(hypervisor_.create_vm(make_vm(1, 1)));  // duplicate id
  EXPECT_TRUE(hypervisor_.destroy_vm(2));
  EXPECT_FALSE(hypervisor_.destroy_vm(2));
  EXPECT_TRUE(hypervisor_.create_vm(make_vm(3, 1)));
  EXPECT_EQ(hypervisor_.vm_count(), 2u);
}

TEST_F(HypervisorFixture, AggregateSignatureIsWeightedByVcpus) {
  EXPECT_EQ(hypervisor_.aggregate_signature().name, "idle");
  Vm calm = make_vm(1, 1);
  calm.workload = *stress::spec_profile("mcf");  // low activity
  Vm busy = make_vm(2, 7);
  busy.workload = *stress::spec_profile("h264ref");  // high activity
  hypervisor_.create_vm(calm);
  hypervisor_.create_vm(busy);
  const auto aggregate = hypervisor_.aggregate_signature();
  // Dominated by the 7-vCPU busy guest.
  EXPECT_GT(aggregate.activity, 0.8);
  EXPECT_LE(aggregate.didt_stress, 1.0);
}

TEST_F(HypervisorFixture, ReliableDomainCoversFootprint) {
  hypervisor_.create_vm(make_vm(1, 2, 8192.0));
  EXPECT_GT(node_.reliable_capacity_mb(),
            hypervisor_.hypervisor_footprint_mb());
  EXPECT_LT(hypervisor_.hypervisor_share(), 0.07);
}

TEST_F(HypervisorFixture, CriticalVmExpandsReliableDomain) {
  const double before = node_.reliable_capacity_mb();
  hypervisor_.create_vm(make_vm(1, 2, 30000.0, /*critical=*/true));
  EXPECT_GE(node_.reliable_capacity_mb(), before);
  EXPECT_GE(node_.reliable_capacity_mb(), 30000.0);
}

TEST_F(HypervisorFixture, TickAtNominalIsUneventful) {
  hypervisor_.create_vm(make_vm(1, 4));
  for (int i = 0; i < 20; ++i) {
    const TickReport report =
        hypervisor_.tick(Seconds{60.0 * i}, 60_s);
    ASSERT_FALSE(report.node_crash);
    ASSERT_FALSE(report.hypervisor_fatal);
    ASSERT_TRUE(report.vms_killed.empty());
    EXPECT_GT(report.energy.value, 0.0);
  }
  EXPECT_EQ(hypervisor_.stats().ticks, 20u);
  EXPECT_GT(hypervisor_.stats().energy.value, 0.0);
  // Monitoring vectors were recorded every tick.
  EXPECT_EQ(hypervisor_.healthlog().vectors().size(), 20u);
}

TEST_F(HypervisorFixture, ApplyMarginsSetsEop) {
  daemons::SafeMargins margins;
  margins.points.push_back(
      {node_.spec().chip.freq_nominal, Volt{0.85}, 14.0, 13.0});
  margins.safe_refresh = 1500_ms;
  hypervisor_.apply_margins(margins, node_.spec().chip.freq_nominal);
  EXPECT_DOUBLE_EQ(node_.eop().vdd.value, 0.85);
  EXPECT_DOUBLE_EQ(node_.eop().refresh.value, 1.5);
  // Reliable channels stay nominal even after the margin application.
  bool any_reliable = false;
  for (int c = 0; c < node_.memory().channels(); ++c) {
    if (node_.channel_reliable(c)) {
      any_reliable = true;
      EXPECT_DOUBLE_EQ(node_.memory().channel_refresh(c).value, 0.064);
    }
  }
  EXPECT_TRUE(any_reliable);
}

TEST_F(HypervisorFixture, UndervoltingPastMarginCrashesAndIsLogged) {
  hypervisor_.create_vm(make_vm(1, 8));
  hw::Eop eop = node_.eop();
  eop.vdd = Volt{node_.spec().chip.vdd_nominal.value * 0.55};
  hypervisor_.apply_eop(eop);
  const TickReport report = hypervisor_.tick(0_s, 60_s);
  EXPECT_TRUE(report.node_crash);
  EXPECT_EQ(hypervisor_.stats().node_crashes, 1u);
  bool saw_crash_event = false;
  for (const auto& event : hypervisor_.healthlog().errors()) {
    if (event.severity == daemons::Severity::kCrash) saw_crash_event = true;
  }
  EXPECT_TRUE(saw_crash_event);
}

TEST(HypervisorDomains, RelaxedRefreshWithoutDomainsEventuallyKillsHv) {
  hw::NodeSpec spec = node_spec();
  hw::ServerNode node(spec, 3);
  HvConfig config;
  config.use_reliable_domain = false;
  config.selective_protection = false;
  Hypervisor hypervisor(node, config, 3);
  hypervisor.create_vm(make_vm(1, 4, 8192.0));
  hw::Eop eop = node.eop();
  eop.refresh = Seconds{5.0};
  hypervisor.apply_eop(eop);

  std::uint64_t hv_hits = 0;
  for (int i = 0; i < 24 * 60; ++i) {
    const TickReport report = hypervisor.tick(Seconds{60.0 * i}, 60_s);
    hv_hits += report.dram_errors_into_hv;
    if (!hypervisor.vms().contains(1)) {
      hypervisor.create_vm(make_vm(1, 4, 8192.0));
    }
  }
  EXPECT_GT(hv_hits, 0u);
}

TEST(HypervisorDomains, ReliableDomainShieldsHv) {
  hw::NodeSpec spec = node_spec();
  hw::ServerNode node(spec, 3);
  HvConfig config;
  config.use_reliable_domain = true;
  Hypervisor hypervisor(node, config, 3);
  hypervisor.create_vm(make_vm(1, 4, 8192.0));
  hw::Eop eop = node.eop();
  eop.refresh = Seconds{5.0};
  hypervisor.apply_eop(eop);

  for (int i = 0; i < 24 * 60; ++i) {
    const TickReport report = hypervisor.tick(Seconds{60.0 * i}, 60_s);
    ASSERT_EQ(report.dram_errors_into_hv, 0u);
    ASSERT_FALSE(report.hypervisor_fatal);
    if (!hypervisor.vms().contains(1)) {
      hypervisor.create_vm(make_vm(1, 4, 8192.0));
    }
  }
}

TEST(HypervisorIsolation, SustainedCacheErrorsRetireCores) {
  hw::NodeSpec spec = node_spec();
  hw::ServerNode node(spec, 4);
  HvConfig config;
  config.core_isolation_threshold_per_hour = 10.0;
  Hypervisor hypervisor(node, config, 4);
  hypervisor.create_vm(make_vm(1, 8));

  // Park the node just above the crash point: the cache ECC canary
  // fires constantly, which must eventually retire cores.
  const auto w = hypervisor.aggregate_signature();
  const Volt crash =
      node.chip().system_crash_voltage(w, spec.chip.freq_nominal);
  hw::Eop eop = node.eop();
  eop.vdd = crash + Volt::from_mv(1.0);
  hypervisor.apply_eop(eop);

  for (int i = 0; i < 120 && hypervisor.retired_cores() == 0; ++i) {
    hypervisor.tick(Seconds{60.0 * i}, 60_s);
  }
  EXPECT_GT(hypervisor.retired_cores(), 0);
  EXPECT_LT(hypervisor.usable_cores(), node.chip().num_cores());
}

TEST(HypervisorStats, VmKillAccounting) {
  hw::NodeSpec spec = node_spec();
  hw::ServerNode node(spec, 5);
  HvConfig config;
  config.guest_sdc_survival = 0.0;  // every guest hit kills the VM
  Hypervisor hypervisor(node, config, 5);
  hypervisor.create_vm(make_vm(1, 4, 16384.0));
  hw::Eop eop = node.eop();
  eop.refresh = Seconds{5.0};
  hypervisor.apply_eop(eop);

  std::uint64_t kills = 0;
  for (int i = 0; i < 24 * 60; ++i) {
    const TickReport report = hypervisor.tick(Seconds{60.0 * i}, 60_s);
    kills += report.vms_killed.size();
    if (!hypervisor.vms().contains(1)) {
      hypervisor.create_vm(make_vm(1, 4, 16384.0));
    }
  }
  EXPECT_GT(kills, 0u);
  EXPECT_EQ(hypervisor.stats().vm_kills, kills);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Sums every VM-set total with its own walk over vms() (the signature
// weight accumulated in double, in ascending id) and checks the
// hypervisor's record against it bit for bit.
void expect_totals_match_walk(const Hypervisor& hypervisor) {
  const bool reliable_domain = hypervisor.config().use_reliable_domain;
  int vcpus = 0, critical_vms = 0;
  double memory_mb = 0.0, critical_mb = 0.0, relaxed_mb = 0.0;
  double weight_total = 0.0;
  double activity = 0.0, didt = 0.0, ipc = 0.0, mem = 0.0, cache = 0.0;
  for (const auto& [id, vm] : hypervisor.vms()) {
    vcpus += vm.vcpus;
    memory_mb += vm.memory_mb;
    if (vm.requirements.critical) {
      ++critical_vms;
      critical_mb += vm.memory_mb;
    }
    if (!(reliable_domain && vm.requirements.critical)) {
      relaxed_mb += vm.memory_mb;
    }
    const double weight = static_cast<double>(vm.vcpus);
    weight_total += weight;
    activity += weight * vm.workload.activity;
    didt += weight * vm.workload.didt_stress;
    ipc += weight * vm.workload.ipc;
    mem += weight * vm.workload.mem_intensity;
    cache += weight * vm.workload.cache_pressure;
  }
  hw::WorkloadSignature expected = hw::idle_signature();
  if (!hypervisor.vms().empty()) {
    expected.name = "vm-aggregate";
    expected.activity = activity / weight_total;
    expected.didt_stress = std::min(
        1.0, didt / weight_total * (1.0 + 0.05 * (weight_total - 1.0)));
    expected.ipc = ipc / weight_total;
    expected.mem_intensity = std::min(1.0, mem / weight_total);
    expected.cache_pressure = std::min(1.0, cache / weight_total);
  }

  const VmTotals& totals = hypervisor.vm_totals();
  EXPECT_EQ(totals.vcpus, vcpus);
  EXPECT_EQ(bits(totals.memory_mb), bits(memory_mb));
  EXPECT_EQ(totals.critical_vms, critical_vms);
  EXPECT_EQ(bits(totals.critical_mb), bits(critical_mb));
  EXPECT_EQ(bits(totals.relaxed_mb), bits(relaxed_mb));
  const hw::WorkloadSignature& signature = hypervisor.aggregate_signature();
  EXPECT_EQ(signature.name, expected.name);
  EXPECT_EQ(bits(signature.activity), bits(expected.activity));
  EXPECT_EQ(bits(signature.didt_stress), bits(expected.didt_stress));
  EXPECT_EQ(bits(signature.ipc), bits(expected.ipc));
  EXPECT_EQ(bits(signature.mem_intensity), bits(expected.mem_intensity));
  EXPECT_EQ(bits(signature.cache_pressure), bits(expected.cache_pressure));
}

class HypervisorTotals : public ::testing::TestWithParam<bool> {};

TEST_P(HypervisorTotals, MatchAFreshWalkAcrossCreateDestroyAndKills) {
  const hw::WorkloadSignature workloads[] = {
      stress::ldbc_profile(), stress::web_service_profile(),
      stress::analytics_profile(), *stress::spec_profile("mcf")};
  std::uint64_t kills = 0;
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    hw::ServerNode node(node_spec(), seed);
    HvConfig config;
    config.use_reliable_domain = GetParam();
    config.guest_sdc_survival = 0.0;  // every guest hit kills the VM
    // Keep the relaxed channels relaxed so the errors keep coming.
    config.channel_isolation_threshold_per_hour = 1e12;
    Hypervisor hypervisor(node, config, seed);
    hw::Eop eop = node.eop();
    eop.refresh = Seconds{5.0};  // decay errors on every relaxed channel
    hypervisor.apply_eop(eop);

    Rng rng(seed);
    for (int step = 0; step < 300; ++step) {
      const std::uint64_t id = 1 + rng.uniform_u64(12);
      switch (rng.uniform_u64(4)) {
        case 0:
        case 1: {
          const int vcpus = static_cast<int>(1 + rng.uniform_u64(3));
          const double memory_mb = rng.uniform(512.0, 4096.0);
          const bool critical = rng.bernoulli(0.3);
          Vm vm = make_vm(id, vcpus, memory_mb, critical);
          vm.workload = workloads[rng.uniform_u64(4)];
          hypervisor.create_vm(vm);
          break;
        }
        case 2:
          hypervisor.destroy_vm(id);
          break;
        default:
          kills += hypervisor.tick(Seconds{60.0 * step}, 60_s)
                       .vms_killed.size();
      }
      expect_totals_match_walk(hypervisor);
      if (HasFailure()) return;
    }
  }
  EXPECT_GT(kills, 0u);  // the SDC-kill path was exercised
}

INSTANTIATE_TEST_SUITE_P(ReliableDomain, HypervisorTotals, ::testing::Bool());

/// Checks every channel against the layout rule, computed here from the
/// hypervisor's public state: channel c is pinned iff it is among the
/// fewest leading channels whose capacity covers the reliable need (none
/// without the reliable domain) or it is isolated. A pinned channel runs
/// at nominal refresh, the others at the EOP's.
void expect_layout_rule(const hw::ServerNode& node,
                        const Hypervisor& hypervisor) {
  const int channels = node.memory().channels();
  int leading = 0;
  if (hypervisor.config().use_reliable_domain) {
    const FootprintModel& footprint = hypervisor.footprint_model();
    const double need =
        footprint.hypervisor_mb(
            hypervisor.vm_count(),
            hypervisor.total_utilized_mb() - footprint.host_os_mb) +
        hypervisor.vm_totals().critical_mb + 256.0;
    double covered = 0.0;
    while (leading < channels && covered < need) {
      covered += node.channel_capacity_mb(leading);
      ++leading;
    }
  }
  int pinned = 0;
  for (int c = 0; c < channels; ++c) {
    const bool want = c < leading || hypervisor.channel_isolated(c);
    EXPECT_EQ(node.channel_reliable(c), want) << "channel " << c;
    const Seconds refresh =
        want ? node.spec().dimm.nominal_refresh : node.eop().refresh;
    EXPECT_EQ(bits(node.memory().channel_refresh(c).value),
              bits(refresh.value))
        << "channel " << c;
    if (want) ++pinned;
  }
  EXPECT_EQ(node.reliable_channels(), pinned);
  EXPECT_EQ(bits(node.memory().power().value),
            bits(node.memory().dimm_power_sum().value));
}

class HypervisorLayout : public ::testing::TestWithParam<bool> {};

TEST_P(HypervisorLayout, EveryStepKeepsThePrefixCoverAndIsolatedChannels) {
  const Seconds refreshes[] = {64_ms, 1500_ms, Seconds{5.0}};
  int isolations = 0;
  int pin_changes = 0;
  for (const std::uint64_t seed : {31u, 32u, 33u, 34u}) {
    hw::ServerNode node(node_spec(), seed);
    HvConfig config;
    config.use_reliable_domain = GetParam();
    // Isolate slowly enough that the layout sees several isolation
    // states before every channel is pinned.
    config.channel_isolation_threshold_per_hour = 60.0;
    Hypervisor hypervisor(node, config, seed);
    expect_layout_rule(node, hypervisor);

    Rng rng(seed);
    int last_pinned = node.reliable_channels();
    for (int step = 0; step < 200; ++step) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step));
      const std::uint64_t id = 1 + rng.uniform_u64(8);
      switch (rng.uniform_u64(5)) {
        case 0:
        case 1: {
          const double memory_mb = rng.uniform(512.0, 12288.0);
          hypervisor.create_vm(make_vm(id, 1, memory_mb, rng.bernoulli(0.5)));
          break;
        }
        case 2:
          hypervisor.destroy_vm(id);
          break;
        case 3: {
          hw::Eop eop = node.eop();
          eop.refresh = refreshes[rng.uniform_u64(3)];
          hypervisor.apply_eop(eop);
          break;
        }
        default: {
          // A tick: relaxed channels may cross the isolation threshold.
          const int before = hypervisor.isolated_channels();
          hypervisor.tick(Seconds{60.0 * step}, 60_s);
          isolations += hypervisor.isolated_channels() - before;
        }
      }
      expect_layout_rule(node, hypervisor);
      if (node.reliable_channels() != last_pinned) ++pin_changes;
      last_pinned = node.reliable_channels();
      if (HasFailure()) return;
    }
  }
  // Both rule terms moved: channels were isolated and the pinned set
  // changed size.
  EXPECT_GT(isolations, 0);
  EXPECT_GT(pin_changes, 0);
}

INSTANTIATE_TEST_SUITE_P(ReliableDomain, HypervisorLayout, ::testing::Bool());

TEST(NodeTickTelemetry, LeavesTheProcessRegistryUnchanged) {
  // A node just above its crash voltage with 5 s DRAM refresh: cache
  // ECC storms that retire cores and raise the re-characterization
  // trigger, DRAM SDCs that hit and kill guests, and finally a crash.
  // The tick books all of it in HvStats and the HealthLog totals; only
  // a cloud publishes those books, so every metric in the process
  // registry reads the same after the ticks as before. The trace ring
  // is a separate sink and is not compared here.
  HvConfig config;
  config.guest_sdc_survival = 0.5;
  config.core_isolation_threshold_per_hour = 10.0;
  osk::ComputeNode node("node-0", node_spec(), config, 21);
  hw::ServerNode& server = node.server();
  std::uint64_t triggers = 0;
  node.hypervisor().healthlog().subscribe_recharacterize(
      [&triggers](Seconds) { ++triggers; });
  const Vm guest = make_vm(1, 4, 16384.0);
  node.place_vm(guest);
  hw::Eop eop = server.eop();
  eop.vdd = server.chip().system_crash_voltage(
                node.hypervisor().aggregate_signature(),
                server.spec().chip.freq_nominal) +
            Volt::from_mv(1.0);
  eop.refresh = Seconds{5.0};
  node.hypervisor().apply_eop(eop);

  // Each metric's reading: value (a histogram's mean), sample count and
  // sum, the doubles compared bit for bit.
  const auto readings = [] {
    std::map<std::string, std::tuple<std::uint64_t, std::uint64_t,
                                     std::uint64_t>> out;
    for (const auto& m : telemetry::MetricsRegistry::global().snapshot()) {
      out[m.meta.name] = {bits(m.value), m.count, bits(m.sum)};
    }
    return out;
  };
  const auto before = readings();
  std::uint64_t masked = 0, hits = 0, kills = 0, crashes = 0;
  for (int i = 0; i < 180; ++i) {
    if (i == 179) {
      // Past the margin: the last tick crashes the node.
      eop.vdd = Volt{server.spec().chip.vdd_nominal.value * 0.55};
      node.hypervisor().apply_eop(eop);
    }
    const osk::ComputeNode::NodeTick tick =
        node.tick(Seconds{60.0 * i}, 60_s);
    masked += tick.report.cache_ecc_masked;
    hits += tick.report.vms_hit.size();
    kills += tick.report.vms_killed.size();
    if (tick.crashed) ++crashes;
    if (node.up() && !node.hypervisor().vms().contains(guest.id)) {
      node.place_vm(guest);
    }
  }
  const auto after = readings();

  EXPECT_GT(masked, 0u);
  EXPECT_GT(triggers, 0u);
  EXPECT_GT(node.hypervisor().retired_cores(), 0);
  EXPECT_GT(hits, 0u);
  EXPECT_GT(kills, 0u);
  EXPECT_GT(crashes, 0u);
  EXPECT_EQ(after, before);
}

TEST(CommissioningTrace, RecordsNoHealthLogEvent) {
  // The commissioning sweep's provoked errors describe the sweep, not
  // the deployed node: no HealthLog sees them, so none can trip a
  // re-characterization event into the trace ring.
  core::EcosystemConfig config;
  config.node_spec = node_spec();
  config.shmoo = stress::ShmooConfig{.runs = 1};
  config.nodes = 4;
  core::Ecosystem ecosystem(config, 5);
  telemetry::TraceBuffer::global().clear();
  ecosystem.commission();
  int cycles = 0;
  for (const auto& event : telemetry::TraceBuffer::global().snapshot()) {
    EXPECT_NE(event.component, "healthlog") << event.name;
    if (event.component == "stresslog") ++cycles;
  }
  EXPECT_EQ(cycles, config.nodes);  // the sweep itself is traced
}

}  // namespace
}  // namespace uniserver::hv
