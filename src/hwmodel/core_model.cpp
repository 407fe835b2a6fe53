#include "hwmodel/core_model.h"

#include <algorithm>
#include <functional>

namespace uniserver::hw {

CoreModel::CoreModel(int id, const ChipSpec& spec, double base_margin,
                     std::uint64_t interaction_seed)
    : id_(id),
      spec_(spec),
      base_margin_(base_margin),
      interaction_seed_(interaction_seed) {}

double CoreModel::interaction(const std::string& workload_name) const {
  // Stable pseudo-random draw keyed by (part, workload): the same core
  // re-running the same benchmark lands on the same interaction term.
  std::uint64_t key =
      interaction_seed_ ^ std::hash<std::string>{}(workload_name);
  Rng rng(key);
  return rng.normal(0.0, spec_.variation.interaction_sigma);
}

double CoreModel::crash_margin(const WorkloadSignature& w,
                               MegaHertz f) const {
  const auto& var = spec_.variation;
  double margin = base_margin_ - aging_loss_;
  // Droop: noisier workloads eat into the undervolt margin. Centered at
  // 0.5 so margin_mean describes a mid-stress workload.
  margin -= var.didt_sensitivity * (w.didt_stress - 0.5);
  // Core x workload interaction (stable per part).
  margin += interaction(w.name);
  // Timing slack: running slower than nominal frees voltage margin;
  // overclocking consumes it faster than it was gained.
  const double fr = f / spec_.freq_nominal;
  if (fr <= 1.0) {
    margin += var.freq_margin_gain * (1.0 - fr);
  } else {
    margin -= 1.5 * var.freq_margin_gain * (fr - 1.0);
  }
  return std::clamp(margin, 0.005, 0.5);
}

Volt CoreModel::crash_voltage(const WorkloadSignature& w, MegaHertz f) const {
  return crash_voltage_at(crash_margin(w, f));
}

Volt CoreModel::crash_voltage_run(const WorkloadSignature& w, MegaHertz f,
                                  Rng& rng) const {
  return crash_voltage_run_at(crash_margin(w, f), rng);
}

Volt CoreModel::crash_voltage_at(double margin) const {
  return Volt{spec_.vdd_nominal.value * (1.0 - margin)};
}

Volt CoreModel::crash_voltage_run_at(double margin, Rng& rng) const {
  const double noisy_margin =
      margin + rng.normal(0.0, spec_.variation.run_sigma);
  const double clamped = std::clamp(noisy_margin, 0.005, 0.5);
  return Volt{spec_.vdd_nominal.value * (1.0 - clamped)};
}

bool CoreModel::survives(Volt v, MegaHertz f, const WorkloadSignature& w,
                         Rng& rng) const {
  return v > crash_voltage_run(w, f, rng);
}

}  // namespace uniserver::hw
