// Tests: NodeStatus interface, diurnal day shape, CPU SDC runtime path.
#include <gtest/gtest.h>

#include "daemons/status_interface.h"
#include "hwmodel/chip_spec.h"
#include "hwmodel/eop.h"
#include "hypervisor/hypervisor.h"
#include "stress/profiles.h"
#include "trace/diurnal.h"

namespace uniserver {
namespace {

using namespace uniserver::literals;

hw::NodeSpec node_spec() {
  hw::NodeSpec spec;
  spec.chip = hw::arm_soc_spec();
  return spec;
}

daemons::SafeMargins margins_for(const hw::ChipSpec& chip) {
  daemons::SafeMargins margins;
  margins.points.push_back({chip.freq_nominal,
                            hw::apply_undervolt_percent(chip.vdd_nominal,
                                                        14.0),
                            15.0, 14.0});
  margins.safe_refresh = 1500_ms;
  return margins;
}

TEST(NodeStatusInterface, UtilizationRatiosAgainstMargins) {
  hw::ServerNode node(node_spec(), 1);
  const auto margins = margins_for(node.spec().chip);
  // Apply half the characterized undervolt and the full refresh.
  hw::Eop eop;
  eop.vdd =
      hw::apply_undervolt_percent(node.spec().chip.vdd_nominal, 7.0);
  eop.freq = node.spec().chip.freq_nominal;
  eop.refresh = 1500_ms;
  node.set_eop(eop);

  daemons::HealthLog healthlog;
  daemons::Predictor predictor;
  const auto status = daemons::collect_status(
      node, healthlog, predictor, margins, stress::ldbc_profile(),
      Seconds{100.0}, 1, 2);
  EXPECT_NEAR(status.margin_utilization, 0.5, 1e-9);
  EXPECT_NEAR(status.refresh_utilization, 1.0, 1e-9);
  EXPECT_EQ(status.retired_cores, 1);
  EXPECT_EQ(status.isolated_channels, 2);
  EXPECT_GE(status.predicted_crash_probability, 0.0);
}

TEST(NodeStatusInterface, UncharacterizedNodeReportsNegativeUtilization) {
  hw::ServerNode node(node_spec(), 1);
  daemons::HealthLog healthlog;
  daemons::Predictor predictor;
  const auto status = daemons::collect_status(
      node, healthlog, predictor, daemons::SafeMargins{},
      hw::idle_signature(), 0_s, 0, 0);
  EXPECT_LT(status.margin_utilization, 0.0);
  EXPECT_LT(status.refresh_utilization, 0.0);
}

TEST(NodeStatusInterface, SerializesToSingleStLine) {
  hw::ServerNode node(node_spec(), 1);
  daemons::HealthLog healthlog;
  healthlog.record_error({Seconds{1.0}, daemons::Component::kCache,
                          daemons::Severity::kCorrectable, 0});
  daemons::Predictor predictor;
  const auto status = daemons::collect_status(
      node, healthlog, predictor, margins_for(node.spec().chip),
      stress::ldbc_profile(), Seconds{2.0}, 0, 0);
  const std::string line = daemons::serialize(status);
  EXPECT_EQ(line.rfind("ST ", 0), 0u);
  EXPECT_NE(line.find("ce=1"), std::string::npos);
  EXPECT_EQ(line.find('\n'), std::string::npos);
}

TEST(Diurnal, FactorPeaksAndTroughsWhereConfigured) {
  trace::DiurnalConfig config;
  config.peak_hour = 14.0;
  EXPECT_NEAR(trace::diurnal_factor(config, Seconds{14.0 * 3600.0}),
              config.peak_factor, 1e-9);
  EXPECT_NEAR(trace::diurnal_factor(config, Seconds{2.0 * 3600.0}),
              config.trough_factor, 1e-9);
  // Next day, same hour: periodic.
  EXPECT_NEAR(trace::diurnal_factor(config, Seconds{(24.0 + 14.0) * 3600.0}),
              config.peak_factor, 1e-9);
}

TEST(CpuSdc, RateGrowsNearTheCrashPoint) {
  hw::ServerNode node(node_spec(), 7);
  const auto w = *stress::spec_profile("h264ref");
  const Volt crash =
      node.chip().system_crash_voltage(w, node.spec().chip.freq_nominal);
  Rng rng(1);

  auto sdc_count_at = [&](double mv_above_crash) {
    hw::Eop eop = node.eop();
    eop.vdd = crash + Volt::from_mv(mv_above_crash);
    node.set_eop(eop);
    std::uint64_t total = 0;
    Rng local(1);
    for (int i = 0; i < 50; ++i) {
      // 10-minute windows; run noise crashes some of them (those
      // windows produce no SDCs by construction).
      total += node.run(w, Seconds{600.0}, 8, local).cpu_sdcs;
    }
    return total;
  };

  const auto near = sdc_count_at(4.0);
  const auto far = sdc_count_at(30.0);
  EXPECT_GT(near, 4u);
  EXPECT_EQ(far, 0u);
}

TEST(CpuSdc, HypervisorRoutesSdcsToGuestsAndLogs) {
  hw::ServerNode node(node_spec(), 7);
  hv::HvConfig config;
  config.guest_sdc_survival = 1.0;  // every hit survivable: count hits
  config.hv_cpu_time_share = 0.0;   // force the guest path
  config.core_isolation_threshold_per_hour = 1e12;
  hv::Hypervisor hypervisor(node, config, 7);
  hv::Vm vm;
  vm.id = 1;
  vm.vcpus = 8;
  vm.memory_mb = 4096.0;
  vm.workload = *stress::spec_profile("h264ref");
  hypervisor.create_vm(vm);

  const Volt crash = node.chip().system_crash_voltage(
      hypervisor.aggregate_signature(), node.spec().chip.freq_nominal);
  hw::Eop eop = node.eop();
  eop.vdd = crash + Volt::from_mv(2.0);
  hypervisor.apply_eop(eop);

  std::uint64_t sdcs = 0;
  std::uint64_t hits = 0;
  for (int i = 0; i < 120; ++i) {
    const auto report = hypervisor.tick(Seconds{60.0 * i}, 60_s);
    sdcs += report.cpu_sdcs;
    hits += report.vms_hit.size();
    ASSERT_FALSE(report.hypervisor_fatal);  // hv share is 0
  }
  EXPECT_GT(sdcs, 0u);
  EXPECT_GE(hits, sdcs);  // every SDC became a survivable guest hit
  EXPECT_GE(hypervisor.healthlog().total_uncorrectable(), sdcs);
}

TEST(CpuSdc, SafeEopSeesEssentiallyNone) {
  hw::ServerNode node(node_spec(), 7);
  hv::HvConfig config;
  hv::Hypervisor hypervisor(node, config, 7);
  hv::Vm vm;
  vm.id = 1;
  vm.vcpus = 4;
  vm.memory_mb = 4096.0;
  vm.workload = stress::web_service_profile();
  hypervisor.create_vm(vm);
  // 5% guard above the aggregate crash point: SDC band is far away.
  const Volt crash = node.chip().system_crash_voltage(
      hypervisor.aggregate_signature(), node.spec().chip.freq_nominal);
  hw::Eop eop = node.eop();
  eop.vdd = Volt{crash.value * 1.05};
  hypervisor.apply_eop(eop);
  std::uint64_t sdcs = 0;
  for (int i = 0; i < 240; ++i) {
    sdcs += hypervisor.tick(Seconds{60.0 * i}, 60_s).cpu_sdcs;
  }
  EXPECT_EQ(sdcs, 0u);
}

}  // namespace
}  // namespace uniserver
