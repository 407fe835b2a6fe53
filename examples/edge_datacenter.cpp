// Example: an edge micro-datacenter (the paper's headline use case).
//
// Six ARM micro-servers behind a neighbourhood gateway serve an
// interactive IoT service with a 200 ms end-to-end latency target.
// The example shows the three compounding UniServer wins:
//   - edge latency slack converts into a lower-frequency DVFS point,
//   - commissioning strips the per-part voltage/refresh guard-bands,
//   - the resilient stack keeps service availability up despite EOP
//     operation, with TCO quantified against a conservative fleet.
//
// Build & run:  ./build/examples/edge_datacenter
#include <cstdio>

#include "common/table.h"
#include "core/ecosystem.h"
#include "edge/edge.h"
#include "hwmodel/chip_spec.h"
#include "stress/profiles.h"
#include "tco/tco.h"

using namespace uniserver;
using namespace uniserver::literals;

namespace {

core::EcosystemConfig fleet_config(bool enable_eop, MegaHertz freq) {
  core::EcosystemConfig config;
  config.node_spec.chip = hw::arm_soc_spec();
  config.nodes = 6;
  config.enable_eop = enable_eop;
  config.guard_percent = 1.0;
  config.shmoo.runs = 1;
  config.target_freq = freq;
  config.cloud.policy = osk::SchedulerPolicy::kReliabilityAware;
  config.cloud.tick = 60_s;
  return config;
}

}  // namespace

int main() {
  // --- the latency argument for running at the edge ------------------
  edge::LatencyModel latency;
  const edge::DvfsSavings dvfs = edge::edge_savings(latency);
  std::printf("== Edge micro-datacenter ==\n");
  std::printf("latency target %.0f ms: cloud leaves %.0f ms of compute, "
              "edge leaves %.0f ms -> run at %.0f%% frequency "
              "(%.0f%% less power)\n\n",
              edge::LatencyModel::kTargetLatency.millis(),
              latency.compute_budget_cloud().millis(),
              latency.compute_budget_edge().millis(),
              dvfs.freq_ratio * 100.0, dvfs.power_saving() * 100.0);

  // --- conservative fleet vs commissioned UniServer fleet ------------
  const MegaHertz nominal = hw::arm_soc_spec().freq_nominal;
  const MegaHertz edge_freq = nominal * dvfs.freq_ratio;

  trace::ArrivalConfig arrivals;
  arrivals.arrivals_per_hour = 10.0;
  arrivals.mean_lifetime = Seconds{2.0 * 3600.0};

  TextTable table("12 h of edge traffic: conservative vs UniServer fleet");
  table.set_header({"fleet", "undervolt", "refresh", "energy [kWh]",
                    "VM survival", "mean availability"});
  double conservative_kwh = 0.0;
  double uniserver_kwh = 0.0;
  for (const bool enable_eop : {false, true}) {
    core::Ecosystem ecosystem(
        fleet_config(enable_eop, enable_eop ? edge_freq : nominal), 7);
    trace::VmArrivalStream stream(arrivals, 7);
    const auto requests = stream.generate(Seconds{12.0 * 3600.0});
    ecosystem.run(requests, Seconds{12.0 * 3600.0});

    const auto summary = ecosystem.summary(stress::web_service_profile());
    const osk::CloudStats stats = ecosystem.cloud().stats();
    (enable_eop ? uniserver_kwh : conservative_kwh) = stats.total_energy_kwh;
    table.add_row({enable_eop ? "UniServer (EOP)" : "conservative",
                   TextTable::pct(summary.mean_undervolt_percent, 1),
                   TextTable::num(summary.mean_refresh_s, 2) + " s",
                   TextTable::num(stats.total_energy_kwh, 2),
                   TextTable::pct(stats.vm_survival_rate() * 100.0, 1),
                   TextTable::pct(stats.mean_node_availability * 100.0, 2)});
  }
  table.print();
  const double ee = conservative_kwh / uniserver_kwh;
  std::printf("\nfleet energy-efficiency factor: %.2fx\n", ee);

  // --- what that means for the bill ----------------------------------
  tco::TcoModel model;
  tco::DatacenterSpec spec = tco::edge_datacenter_spec();
  spec.servers = 6;
  std::printf("edge TCO improvement from the measured EE factor: %.3fx "
              "(yearly baseline $%.0f)\n",
              model.tco_improvement(spec, ee, false),
              model.compute(spec).total().value);
  return 0;
}
