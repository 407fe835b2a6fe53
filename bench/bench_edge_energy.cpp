// Reproduces the §6.D edge-computing energy example:
//
//   "a hypothetical IoT service with a target end-to-end latency of
//    200 ms can easily, for a roundtrip to the cloud, expect to spend
//    half of its budget in the network [...] operating at 50% of the
//    peak frequency with 30% less voltage translates to running with
//    50% less energy and 75% less power."
#include <cstdio>

#include "common/table.h"
#include "edge/edge.h"

using namespace uniserver;

int main() {
  edge::LatencyModel latency;  // 200 ms target, 100 ms cloud RTT, 5 ms edge

  std::printf("== Edge latency budget (target %.0f ms) ==\n",
              edge::LatencyModel::kTargetLatency.millis());
  std::printf("cloud: RTT %.0f ms -> compute budget %.0f ms (%.0f%% of the "
              "budget burnt in the network)\n",
              edge::LatencyModel::kCloudRtt.millis(),
              latency.compute_budget_cloud().millis(),
              edge::LatencyModel::kCloudRtt.millis() /
                  edge::LatencyModel::kTargetLatency.millis() * 100.0);
  std::printf("edge:  RTT %.0f ms -> compute budget %.0f ms\n\n",
              latency.edge_rtt.millis(),
              latency.compute_budget_edge().millis());

  // The paper's quoted DVFS point.
  const edge::DvfsSavings quoted = edge::savings_at(0.5, 0.7);
  TextTable table("DVFS savings from the edge latency slack");
  table.set_header({"point", "freq", "voltage", "power saving",
                    "energy saving", "paper"});
  table.add_row({"paper example", "50%", "70%",
                 TextTable::pct(quoted.power_saving() * 100.0, 1),
                 TextTable::pct(quoted.energy_saving() * 100.0, 1),
                 "75% power, 50% energy"});

  const edge::DvfsSavings slack = edge::edge_savings(latency);
  table.add_row({"slack-derived",
                 TextTable::pct(slack.freq_ratio * 100.0, 0),
                 TextTable::pct(slack.voltage_ratio * 100.0, 0),
                 TextTable::pct(slack.power_saving() * 100.0, 1),
                 TextTable::pct(slack.energy_saving() * 100.0, 1), ""});
  table.print();

  TextTable sweep("Power/energy savings across the V-f curve");
  sweep.set_header({"freq ratio", "voltage ratio", "power saving",
                    "energy saving"});
  for (double fr = 1.0; fr >= 0.29; fr -= 0.1) {
    const double vr = edge::voltage_ratio_for(fr);
    const edge::DvfsSavings savings = edge::savings_at(fr, vr);
    sweep.add_row({TextTable::num(fr, 1), TextTable::num(vr, 2),
                   TextTable::pct(savings.power_saving() * 100.0, 1),
                   TextTable::pct(savings.energy_saving() * 100.0, 1)});
  }
  sweep.print();
  return 0;
}
