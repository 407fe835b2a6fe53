#include "tco/explorer.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/parallel.h"

namespace uniserver::tco {

std::vector<DesignPoint> TcoExplorer::sweep(
    const DatacenterSpec& base, const std::vector<SweepDimension>& dims,
    double ee_factor) const {
  // Full factorial over a mixed-radix index space: point k's digit for
  // dimension d is (k / stride_d) % |values_d| with dimension 0 the
  // fastest axis — the same enumeration order the serial counter
  // produced, so results are position-stable across worker counts.
  std::size_t total = 1;
  for (const SweepDimension& dim : dims) total *= dim.values.size();
  if (total == 0) return {};  // a dimension with no values spans nothing

  std::vector<DesignPoint> points(total);
  par::parallel_for_each(total, [&](std::size_t k) {
    DatacenterSpec spec = base;
    std::size_t rem = k;
    for (const SweepDimension& dim : dims) {
      dim.apply(spec, dim.values[rem % dim.values.size()]);
      rem /= dim.values.size();
    }
    DesignPoint point;
    point.spec = spec;
    point.ee_factor = ee_factor;
    point.breakdown = ee_factor == 1.0
                          ? model_.compute(spec)
                          : model_.compute_with_ee(spec, ee_factor, true);
    point.cost_per_server_year =
        Dollar{spec.servers <= 0
                   ? 0.0
                   : point.breakdown.total().value / spec.servers};
    points[k] = std::move(point);
  });
  return points;
}

const DesignPoint& TcoExplorer::cheapest(
    const std::vector<DesignPoint>& points) {
  assert(!points.empty());
  const DesignPoint* best = &points.front();
  for (const DesignPoint& point : points) {
    const double a = point.breakdown.total().value;
    const double b = best->breakdown.total().value;
    if (a < b || (a == b && point.spec.servers < best->spec.servers)) {
      best = &point;
    }
  }
  return *best;
}

TcoExplorer::EdgeCloudComparison TcoExplorer::compare_edge_cloud(
    const DatacenterSpec& cloud, const DatacenterSpec& edge,
    double cloud_requests_per_server_s, double edge_requests_per_server_s,
    Dollar wan_cost_per_million_requests) const {
  assert(cloud.servers > 0 && edge.servers > 0);
  assert(cloud_requests_per_server_s > 0.0 &&
         edge_requests_per_server_s > 0.0);
  const double seconds_per_year = 8760.0 * 3600.0;
  const double cloud_tco_per_server =
      model_.compute(cloud).total().value / cloud.servers;
  const double edge_tco_per_server =
      model_.compute(edge).total().value / edge.servers;

  // Hardware cost to serve one million requests on each side.
  const double cloud_hw_per_million =
      cloud_tco_per_server * 1e6 /
      (cloud_requests_per_server_s * seconds_per_year);
  const double edge_hw_per_million =
      edge_tco_per_server * 1e6 /
      (edge_requests_per_server_s * seconds_per_year);

  EdgeCloudComparison result;
  result.cloud_cost_per_million =
      Dollar{cloud_hw_per_million + wan_cost_per_million_requests.value};
  result.edge_cost_per_million = Dollar{edge_hw_per_million};
  // Edge wins once the WAN toll exceeds the hardware gap.
  result.breakeven_wan_cost_per_million =
      Dollar{std::max(0.0, edge_hw_per_million - cloud_hw_per_million)};
  result.edge_wins =
      result.edge_cost_per_million.value < result.cloud_cost_per_million.value;
  return result;
}

SweepDimension TcoExplorer::electricity_price_usd(
    std::vector<double> values) {
  return {"electricity $/kWh", std::move(values),
          [](DatacenterSpec& spec, double v) {
            spec.electricity_per_kwh = Dollar{v};
          }};
}

SweepDimension TcoExplorer::pue(std::vector<double> values) {
  return {"PUE", std::move(values),
          [](DatacenterSpec& spec, double v) { spec.pue = v; }};
}

SweepDimension TcoExplorer::server_power_w(std::vector<double> values) {
  return {"server power [W]", std::move(values),
          [](DatacenterSpec& spec, double v) {
            spec.server_avg_power = Watt{v};
          }};
}

}  // namespace uniserver::tco
