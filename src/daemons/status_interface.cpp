#include "daemons/status_interface.h"

#include <cstdio>

namespace uniserver::daemons {

NodeStatus collect_status(const hw::ServerNode& node,
                          const HealthLog& healthlog,
                          const Predictor& predictor,
                          const SafeMargins& margins,
                          const hw::WorkloadSignature& current, Seconds now,
                          int retired_cores, int isolated_channels) {
  NodeStatus status;
  status.timestamp = now;
  status.eop = node.eop();

  const auto& chip = node.spec().chip;
  const double applied_offset =
      hw::undervolt_percent(chip.vdd_nominal, status.eop.vdd);
  if (!margins.points.empty()) {
    const auto& point = margins.point_for(status.eop.freq);
    if (point.safe_offset_percent > 0.0) {
      status.margin_utilization =
          applied_offset / point.safe_offset_percent;
    }
    const double nominal_ms = node.spec().dimm.nominal_refresh.millis();
    const double safe_relaxation =
        margins.safe_refresh.millis() - nominal_ms;
    if (safe_relaxation > 0.0) {
      status.refresh_utilization =
          (status.eop.refresh.millis() - nominal_ms) / safe_relaxation;
    }
  }

  status.correctable_rate_per_s = healthlog.error_rate_per_s(now);
  status.total_correctable = healthlog.total_correctable();
  status.total_uncorrectable = healthlog.total_uncorrectable();

  PredictorFeatures features;
  features.undervolt_percent = applied_offset;
  features.freq_ratio = status.eop.freq / chip.freq_nominal;
  features.didt_stress = current.didt_stress;
  features.activity = current.activity;
  const auto op = node.chip().power().steady_state(
      status.eop.vdd, status.eop.freq, current.activity,
      node.chip().num_cores());
  features.temp_c = op.temp.value;
  status.predicted_crash_probability = predictor.crash_probability(features);

  constexpr double kYear = 365.0 * 24.0 * 3600.0;
  status.age_years = node.chip().age().value / kYear;
  status.retired_cores = retired_cores;
  status.isolated_channels = isolated_channels;
  return status;
}

std::string serialize(const NodeStatus& status) {
  char buffer[360];
  std::snprintf(
      buffer, sizeof buffer,
      "ST t=%.3f vdd=%.4f freq=%.1f refresh=%.4f margin_util=%.3f "
      "refresh_util=%.3f ce_rate=%.5f ce=%llu ue=%llu p_crash=%.4e "
      "age_y=%.2f retired_cores=%d isolated_ch=%d",
      status.timestamp.value, status.eop.vdd.value, status.eop.freq.value,
      status.eop.refresh.value, status.margin_utilization,
      status.refresh_utilization, status.correctable_rate_per_s,
      static_cast<unsigned long long>(status.total_correctable),
      static_cast<unsigned long long>(status.total_uncorrectable),
      status.predicted_crash_probability, status.age_years,
      status.retired_cores, status.isolated_channels);
  return buffer;
}

}  // namespace uniserver::daemons
