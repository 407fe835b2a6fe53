// TCO design-space exploration (paper innovation vii: "a tool for
// estimating the Total Cost of Ownership gains ... and data-center
// design exploration", considering "specific requirements and
// architecture of both the Cloud and the Edge").
//
// Sweeps deployment parameters around a base specification, evaluates
// the yearly TCO (optionally under an energy-efficiency improvement)
// for every point, and answers the questions an operator actually has:
// where is the cheapest configuration, and at what utilization /
// electricity price / EE factor does an Edge deployment beat shipping
// the work to the Cloud?
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "tco/tco.h"

namespace uniserver::tco {

/// One evaluated configuration.
struct DesignPoint {
  DatacenterSpec spec;
  double ee_factor{1.0};
  TcoBreakdown breakdown;
  /// Cost per served unit of work: total / (servers * utilization proxy).
  Dollar cost_per_server_year{Dollar{0.0}};
};

/// A swept parameter: name + the values to try + how to apply a value.
struct SweepDimension {
  std::string name;
  std::vector<double> values;
  std::function<void(DatacenterSpec&, double)> apply;
};

class TcoExplorer {
 public:
  explicit TcoExplorer(TcoModel model = {}) : model_(model) {}

  /// Full-factorial sweep of the dimensions around `base` at a fixed
  /// EE factor. Returns every evaluated point.
  std::vector<DesignPoint> sweep(const DatacenterSpec& base,
                                 const std::vector<SweepDimension>& dims,
                                 double ee_factor = 1.0) const;

  /// The cheapest point of a sweep result (by yearly total; ties break
  /// toward fewer servers).
  static const DesignPoint& cheapest(const std::vector<DesignPoint>& points);

  /// Cloud-vs-Edge per-request economics: work served from the cloud
  /// pays a WAN toll per request; edge servers are smaller but closer.
  /// Both cost curves are linear in load, so the decision reduces to
  /// cost-per-million-requests — and the interesting knob is the WAN
  /// price at which the two tie.
  struct EdgeCloudComparison {
    Dollar cloud_cost_per_million{Dollar{0.0}};  ///< incl. WAN toll
    Dollar edge_cost_per_million{Dollar{0.0}};
    /// WAN price per million requests at which cloud and edge tie;
    /// above it the edge deployment is cheaper.
    Dollar breakeven_wan_cost_per_million{Dollar{0.0}};
    bool edge_wins{false};
  };
  EdgeCloudComparison compare_edge_cloud(
      const DatacenterSpec& cloud, const DatacenterSpec& edge,
      double cloud_requests_per_server_s,
      double edge_requests_per_server_s,
      Dollar wan_cost_per_million_requests) const;

  /// Common sweep dimensions for the bench/CLI.
  static SweepDimension electricity_price_usd(std::vector<double> values);
  static SweepDimension pue(std::vector<double> values);
  static SweepDimension server_power_w(std::vector<double> values);

 private:
  TcoModel model_;
};

}  // namespace uniserver::tco
