#include "daemons/stresslog.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

#include "stress/kernels.h"
#include "stress/profiles.h"
#include "telemetry/telemetry.h"

namespace uniserver::daemons {

namespace {
struct StressLogMetrics {
  telemetry::Counter& cycles = telemetry::counter(
      "daemon.stresslog.cycles", "cycles",
      "Offline characterization cycles run");
  telemetry::Counter& ecc_events = telemetry::counter(
      "daemon.stresslog.ecc_events_observed", "events",
      "ECC events provoked during characterization sweeps");
  telemetry::Histogram& cycle_wall_ms = telemetry::histogram(
      "daemon.stresslog.cycle_wall_ms", 0.0, 10000.0, 100, "ms",
      "Wall-clock cost of one full characterization cycle");
  telemetry::Gauge& safe_offset = telemetry::gauge(
      "daemon.stresslog.last_safe_offset_pct", "%",
      "Safe undervolt offset at the first characterized frequency");
  telemetry::Gauge& safe_refresh = telemetry::gauge(
      "daemon.stresslog.last_safe_refresh_s", "s",
      "Safe DRAM refresh interval from the latest cycle");
};

StressLogMetrics& metrics() {
  static StressLogMetrics m;
  return m;
}
}  // namespace

const SafeMargins::FreqPoint& SafeMargins::point_for(MegaHertz freq) const {
  assert(!points.empty());
  const FreqPoint* best = &points.front();
  double best_gap = std::abs(best->freq.value - freq.value);
  for (const auto& point : points) {
    const double gap = std::abs(point.freq.value - freq.value);
    if (gap < best_gap) {
      best = &point;
      best_gap = gap;
    }
  }
  return *best;
}

StressLog::StressLog(stress::ShmooConfig shmoo, std::uint64_t seed)
    : characterizer_(shmoo), rng_(seed) {}

Seconds StressLog::safe_refresh_interval(const hw::ServerNode& node,
                                         const StressTargetParams& params) {
  Seconds best = node.spec().dimm.nominal_refresh;
  for (const Seconds candidate : params.refresh_candidates) {
    double expected = 0.0;
    const auto& memory = node.memory();
    for (int c = 0; c < memory.channels(); ++c) {
      for (int d = 0; d < node.spec().dimms_per_channel; ++d) {
        expected += memory.dimm(c, d).expected_errors(
            candidate, params.dram_worst_case_temp);
      }
    }
    if (expected <= params.max_expected_dram_errors &&
        candidate > best) {
      best = candidate;
    }
  }
  return best;
}

SafeMargins StressLog::run_cycle(const hw::ServerNode& node,
                                 const StressTargetParams& params,
                                 Seconds now) {
  ++cycles_;
  metrics().cycles.add();
  const auto cycle_start = telemetry::WallClock::now();
  SafeMargins margins;
  margins.characterized_at = now;

  std::vector<MegaHertz> freqs = params.freqs;
  if (freqs.empty()) freqs.push_back(node.spec().chip.freq_nominal);

  const Volt vnom = node.spec().chip.vdd_nominal;
  for (const MegaHertz freq : freqs) {
    const auto campaign =
        characterizer_.campaign(node.chip(), params.suite, freq, rng_);

    double min_crash = 1e9;
    std::uint64_t ecc_total = 0;
    for (const auto& summary : campaign) {
      min_crash = std::min(min_crash, summary.system_crash_offset);
      for (const auto& core : summary.per_core) {
        for (const auto& run : core.runs) ecc_total += run.ecc_errors;
      }
    }
    margins.ecc_events_observed += ecc_total;

    SafeMargins::FreqPoint point;
    point.freq = freq;
    point.crash_offset_percent = min_crash;
    point.safe_offset_percent =
        std::max(0.0, min_crash - params.guard_percent);
    point.safe_vdd =
        hw::apply_undervolt_percent(vnom, point.safe_offset_percent);
    margins.points.push_back(point);
  }

  margins.safe_refresh = safe_refresh_interval(node, params);

  metrics().ecc_events.add(margins.ecc_events_observed);
  if (!margins.points.empty()) {
    metrics().safe_offset.set(margins.points.front().safe_offset_percent);
  }
  metrics().safe_refresh.set(margins.safe_refresh.value);
  metrics().cycle_wall_ms.record(telemetry::WallClock::ms_since(cycle_start));
  char offset[32];
  std::snprintf(offset, sizeof offset, "%.2f",
                margins.points.empty()
                    ? 0.0
                    : margins.points.front().safe_offset_percent);
  telemetry::trace(now, "stresslog", "cycle_complete",
                   {{"safe_offset_pct", offset},
                    {"safe_refresh_s",
                     std::to_string(margins.safe_refresh.value)},
                    {"ecc_events",
                     std::to_string(margins.ecc_events_observed)}});
  return margins;
}

StressTargetParams default_stress_params(const hw::ServerNode& node) {
  StressTargetParams params;
  params.suite = stress::spec2006_profiles();
  for (const auto& kernel : stress::builtin_kernels()) {
    params.suite.push_back(kernel.signature);
  }
  const MegaHertz fnom = node.spec().chip.freq_nominal;
  params.freqs = {fnom, fnom * 0.85, fnom * 0.70, fnom * 0.50};
  params.refresh_candidates = {
      Seconds::from_ms(64.0),   Seconds::from_ms(128.0),
      Seconds::from_ms(256.0),  Seconds::from_ms(512.0),
      Seconds::from_ms(1000.0), Seconds{1.5},
      Seconds{2.0},             Seconds{3.0},
      Seconds{5.0}};
  return params;
}

}  // namespace uniserver::daemons
