// TCO tool exploration (paper innovation vii): data-center design-space
// sweep plus the Cloud-vs-Edge per-request economics — the "capital and
// operational expenses" view of where UniServer deployments pay off.
#include <cstdio>
#include <cstring>

#include "common/parallel.h"
#include "common/table.h"
#include "tco/explorer.h"

using namespace uniserver;

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      const auto jobs = par::parse_jobs(argv[++i]);
      if (!jobs) return 2;
      par::set_default_jobs(*jobs);
    }
  }
  tco::TcoExplorer explorer;

  // --- design-space sweep for the edge deployment --------------------
  const tco::DatacenterSpec base = tco::edge_datacenter_spec();
  const std::vector<tco::SweepDimension> dims{
      tco::TcoExplorer::electricity_price_usd({0.08, 0.12, 0.20}),
      tco::TcoExplorer::pue({1.05, 1.1, 1.3}),
      tco::TcoExplorer::server_power_w({25.0, 35.0, 50.0}),
  };

  TextTable sweep("Edge design-space sweep (27 points, margins EE 1.5x)");
  sweep.set_header({"electricity", "PUE", "server W", "TCO/yr",
                    "$/server/yr"});
  const auto points = explorer.sweep(base, dims, /*ee_factor=*/1.5);
  // Print the frontier rows: cheapest three and costliest one.
  auto sorted = points;
  std::sort(sorted.begin(), sorted.end(),
            [](const tco::DesignPoint& a, const tco::DesignPoint& b) {
              return a.breakdown.total().value < b.breakdown.total().value;
            });
  auto emit = [&sweep](const tco::DesignPoint& point) {
    sweep.add_row({"$" + TextTable::num(point.spec.electricity_per_kwh.value,
                                        2),
                   TextTable::num(point.spec.pue, 2),
                   TextTable::num(point.spec.server_avg_power.value, 0),
                   "$" + TextTable::num(point.breakdown.total().value, 0),
                   "$" + TextTable::num(point.cost_per_server_year.value,
                                        0)});
  };
  for (std::size_t i = 0; i < 3; ++i) emit(sorted[i]);
  sweep.add_row({"...", "", "", "", ""});
  emit(sorted.back());
  sweep.print();

  const auto& best = tco::TcoExplorer::cheapest(points);
  std::printf("\ncheapest configuration: %.0f W servers at PUE %.2f, "
              "$%.2f/kWh -> $%.0f/yr for %d micro-servers\n\n",
              best.spec.server_avg_power.value, best.spec.pue,
              best.spec.electricity_per_kwh.value,
              best.breakdown.total().value, best.spec.servers);

  // --- Cloud vs Edge per-request economics ---------------------------
  TextTable economics("Cloud vs Edge cost per million requests");
  economics.set_header({"WAN $/M requests", "cloud $/M", "edge $/M",
                        "winner"});
  const tco::DatacenterSpec cloud = tco::cloud_datacenter_spec();
  const tco::DatacenterSpec edge = tco::edge_datacenter_spec();
  const double cloud_rps = 2000.0;  // beefy cloud server
  const double edge_rps = 500.0;    // micro-server
  for (const double wan : {0.0, 0.5, 1.0, 2.0, 5.0}) {
    const auto comparison = explorer.compare_edge_cloud(
        cloud, edge, cloud_rps, edge_rps, Dollar{wan});
    economics.add_row(
        {"$" + TextTable::num(wan, 2),
         "$" + TextTable::num(comparison.cloud_cost_per_million.value, 2),
         "$" + TextTable::num(comparison.edge_cost_per_million.value, 2),
         comparison.edge_wins ? "edge" : "cloud"});
  }
  economics.print();
  const auto comparison = explorer.compare_edge_cloud(
      cloud, edge, cloud_rps, edge_rps, Dollar{0.0});
  std::printf("\nbreak-even WAN price: $%.2f per million requests — above "
              "it the edge deployment wins on cost alone, before counting "
              "the latency benefit (paper SS6.D)\n",
              comparison.breakeven_wan_cost_per_million.value);
  return 0;
}
