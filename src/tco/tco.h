// Total Cost of Ownership model (paper §6.D, Table 3), in the style of
// the analytical framework of Hardy et al. [31] the paper builds its
// TCO tool on: capital expenses (servers + power/cooling infrastructure,
// amortized) plus operational expenses (energy at a PUE-scaled rate,
// maintenance), for Cloud and Edge deployment profiles.
//
// Table 3's PDF row is scrambled ("1.15 4 2 3 1.5 36" under five EE
// headers plus TCO); the only factor assignment consistent with the
// stated overall 36x EE and the text's "energy efficiency gains alone
// give 1.15x TCO" is: scaling 4x, software maturity 2x, fog/edge 3x,
// margins (EOP) 1.5x -> overall 4*2*3*1.5 = 36x, TCO 1.15x. See
// EXPERIMENTS.md.
#pragma once

#include <string>

#include "common/units.h"

namespace uniserver::tco {

/// Deployment-site parameters.
struct DatacenterSpec {
  std::string name{"cloud"};
  int servers{1000};
  Dollar server_capex{Dollar{2500.0}};
  /// Average power drawn per server (IT load).
  Watt server_avg_power{Watt{150.0}};
  /// Power Usage Effectiveness (total facility / IT power).
  double pue{1.5};
  Dollar electricity_per_kwh{Dollar{0.10}};
  /// Facility capex per provisioned watt (power + cooling).
  Dollar infra_capex_per_watt{Dollar{10.0}};
};

/// Yearly TCO breakdown (all values per year, whole deployment).
struct TcoBreakdown {
  Dollar server_capex{Dollar{0.0}};
  Dollar infra_capex{Dollar{0.0}};
  Dollar energy_opex{Dollar{0.0}};
  Dollar maintenance_opex{Dollar{0.0}};

  Dollar total() const {
    return server_capex + infra_capex + energy_opex + maintenance_opex;
  }
  double energy_share() const {
    const double t = total().value;
    return t <= 0.0 ? 0.0 : energy_opex.value / t;
  }
};

/// The energy-efficiency improvement sources of Table 3.
struct EeImprovement {
  double technology_scaling{4.0};  ///< finfet adoption, leakage reduction
  double software_maturity{2.0};   ///< ARM server software stack maturing
  double fog{3.0};                 ///< running at the Edge (latency slack)
  double margins{1.5};             ///< operating at EOP (UniServer)

  double overall() const {
    return technology_scaling * software_maturity * fog * margins;
  }
};

class TcoModel {
 public:
  /// Amortization periods of server and facility capex.
  static constexpr double kServerLifetimeYears = 4.0;
  static constexpr double kInfraLifetimeYears = 12.0;
  /// Yearly maintenance as a fraction of server capex.
  static constexpr double kMaintenanceFraction = 0.05;

  /// Yearly TCO of a deployment.
  TcoBreakdown compute(const DatacenterSpec& spec) const;

  /// TCO with server power divided by an energy-efficiency factor
  /// (infrastructure is re-provisioned for the lower power draw too).
  TcoBreakdown compute_with_ee(const DatacenterSpec& spec,
                               double ee_factor,
                               bool reprovision_infra = true) const;

  /// TCO improvement ratio (baseline / improved) from an EE factor.
  double tco_improvement(const DatacenterSpec& spec, double ee_factor,
                         bool reprovision_infra = true) const;

  /// Additional capex reduction from higher yield: parts that binning
  /// would discard stay usable under per-part margins (paper §5.A).
  double tco_improvement_with_yield(const DatacenterSpec& spec,
                                    double ee_factor,
                                    double capex_discount) const;
};

/// Canonical deployment profiles used by the Table 3 bench.
DatacenterSpec cloud_datacenter_spec();
DatacenterSpec edge_datacenter_spec();

}  // namespace uniserver::tco
