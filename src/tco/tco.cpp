#include "tco/tco.h"

namespace uniserver::tco {

TcoBreakdown TcoModel::compute(const DatacenterSpec& spec) const {
  TcoBreakdown breakdown;
  const double servers = static_cast<double>(spec.servers);

  breakdown.server_capex =
      Dollar{servers * spec.server_capex.value / kServerLifetimeYears};

  const double provisioned_watts =
      servers * spec.server_avg_power.value * spec.pue;
  breakdown.infra_capex = Dollar{
      provisioned_watts * spec.infra_capex_per_watt.value / kInfraLifetimeYears};

  const double kwh_per_year =
      servers * spec.server_avg_power.value * spec.pue * 8760.0 / 1000.0;
  breakdown.energy_opex =
      Dollar{kwh_per_year * spec.electricity_per_kwh.value};

  breakdown.maintenance_opex =
      Dollar{servers * spec.server_capex.value * kMaintenanceFraction};
  return breakdown;
}

TcoBreakdown TcoModel::compute_with_ee(const DatacenterSpec& spec,
                                       double ee_factor,
                                       bool reprovision_infra) const {
  DatacenterSpec improved = spec;
  improved.server_avg_power =
      Watt{spec.server_avg_power.value / ee_factor};
  TcoBreakdown breakdown = compute(improved);
  if (!reprovision_infra) {
    // Existing facility: infra capex stays sized for the old power.
    breakdown.infra_capex = compute(spec).infra_capex;
  }
  return breakdown;
}

double TcoModel::tco_improvement(const DatacenterSpec& spec, double ee_factor,
                                 bool reprovision_infra) const {
  const double baseline = compute(spec).total().value;
  const double improved =
      compute_with_ee(spec, ee_factor, reprovision_infra).total().value;
  return improved <= 0.0 ? 1.0 : baseline / improved;
}

double TcoModel::tco_improvement_with_yield(const DatacenterSpec& spec,
                                            double ee_factor,
                                            double capex_discount) const {
  DatacenterSpec discounted = spec;
  discounted.server_capex =
      Dollar{spec.server_capex.value * (1.0 - capex_discount)};
  const double baseline = compute(spec).total().value;
  const double improved =
      compute_with_ee(discounted, ee_factor, true).total().value;
  return improved <= 0.0 ? 1.0 : baseline / improved;
}

DatacenterSpec cloud_datacenter_spec() {
  DatacenterSpec spec;
  spec.name = "cloud";
  spec.servers = 1000;
  spec.server_capex = Dollar{2500.0};
  spec.server_avg_power = Watt{150.0};
  spec.pue = 1.5;
  spec.electricity_per_kwh = Dollar{0.10};
  spec.infra_capex_per_watt = Dollar{10.0};
  return spec;
}

DatacenterSpec edge_datacenter_spec() {
  DatacenterSpec spec;
  spec.name = "edge";
  spec.servers = 20;
  // Micro-servers: cheaper parts, free-air cooling, no raised floor.
  spec.server_capex = Dollar{1200.0};
  spec.server_avg_power = Watt{35.0};
  spec.pue = 1.1;
  spec.electricity_per_kwh = Dollar{0.12};
  spec.infra_capex_per_watt = Dollar{3.0};
  return spec;
}

}  // namespace uniserver::tco
