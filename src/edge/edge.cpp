#include "edge/edge.h"

#include <algorithm>

namespace uniserver::edge {

double LatencyModel::allowed_freq_ratio() const {
  const double cloud_budget = compute_budget_cloud().value;
  const double edge_budget = compute_budget_edge().value;
  if (edge_budget <= 0.0) return 1.0;
  // Work that fits the cloud budget at nominal frequency may stretch
  // across the bigger edge budget: f_edge / f_nominal = t_cloud / t_edge.
  return std::clamp(cloud_budget / edge_budget, 0.05, 1.0);
}

DvfsSavings edge_savings(const LatencyModel& latency) {
  DvfsSavings savings;
  savings.freq_ratio = latency.allowed_freq_ratio();
  savings.voltage_ratio = voltage_ratio_for(savings.freq_ratio);
  return savings;
}

DvfsSavings savings_at(double freq_ratio, double voltage_ratio) {
  DvfsSavings savings;
  savings.freq_ratio = freq_ratio;
  savings.voltage_ratio = voltage_ratio;
  return savings;
}

}  // namespace uniserver::edge
