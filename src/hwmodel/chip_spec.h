// Chip specifications: the manufacturer-visible parameters plus the
// process-variation statistics that generate per-part behaviour.
//
// Presets model the two Intel parts characterized in the paper's §6.A
// (Table 2) and the 64-bit ARM Server-on-Chip that is the UniServer
// main chassis. Variation statistics are calibrated so that a population
// of sampled chips reproduces the published crash-point and
// core-to-core-variation ranges.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.h"

namespace uniserver::hw {

struct CacheSpec {
  /// Whether undervolting exposes correctable cache ECC errors before
  /// the cores crash (true for the low-end part in the paper).
  bool ecc_exposed_before_crash{false};
  /// Mean voltage gap between ECC-error onset and the crash point
  /// (the paper reports ~15 mV on the i5-4200U).
  double ecc_onset_above_crash_mv{15.0};
  /// Correctable-error rate (errors/s) right at the onset voltage.
  double ecc_rate_at_onset_per_s{0.15};
  /// Exponential growth constant of the error rate per mV below onset.
  double ecc_rate_mv_constant{4.0};
  /// Number of independently characterizable cache banks.
  int banks{8};
  /// Per-bank Vmin spread (fraction of nominal).
  double bank_vmin_sigma{0.01};
};

struct VariationSpec {
  /// Mean undervolt margin (fraction of Vnom) at which the average
  /// core running the average workload crashes.
  double margin_mean{0.12};
  /// Chip-to-chip sigma of the baseline margin.
  double chip_sigma{0.01};
  /// Core-to-core sigma within a chip.
  double core_sigma{0.01};
  /// Workload sensitivity: margin lost per unit of dI/dt stress.
  double didt_sensitivity{0.012};
  /// Core x workload interaction sigma (stable per part).
  double interaction_sigma{0.004};
  /// Run-to-run repetition noise sigma.
  double run_sigma{0.0008};
  /// Margin gained per unit fractional frequency reduction
  /// (lowering f leaves more timing slack, so deeper undervolt works).
  double freq_margin_gain{0.30};
  /// Aging (BTI/HCI-style): undervolt margin lost after one year of
  /// operation; loss grows sublinearly, ~ (age/1y)^aging_exponent.
  /// This is what forces the StressLog's periodic re-characterization
  /// ("adapt ... to the aging of the system", paper §3).
  double aging_loss_at_year{0.015};
  double aging_exponent{0.3};
  /// Environmental term: undervolt margin lost per degree of junction
  /// temperature above the characterization baseline (hot silicon is
  /// slower). Applied by the platform at run time — characterization
  /// itself happens at the baseline, which is how a part qualified in
  /// an air-conditioned room gets into trouble in a hot edge closet.
  double temp_margin_per_c{0.0005};
  Celsius characterization_temp{Celsius{55.0}};
  /// Near-threshold CPU logic SDCs (paper §4.A: "the Hypervisor can be
  /// affected by CPU errors as well"): per-core silent-corruption rate
  /// right at the crash voltage, decaying exponentially per mV of
  /// headroom above it. Unlike cache ECC events these are uncorrected.
  double cpu_sdc_rate_at_crash_per_s{0.002};
  double cpu_sdc_mv_constant{3.0};
};

struct PowerSpec {
  /// Dynamic power of one core at nominal V/F and activity 1.0.
  Watt core_dynamic_nominal{Watt{5.0}};
  /// Leakage power of one core at nominal V and 25 C.
  Watt core_leakage_nominal{Watt{1.0}};
  /// Uncore/board power that does not scale with V-F.
  Watt uncore{Watt{5.0}};
  /// Leakage doubles roughly every this many degrees C.
  double leakage_doubling_c{30.0};
  /// Idle temperature of the part in the test environment.
  Celsius ambient{Celsius{25.0}};
  /// Temperature rise per watt of package power (crude thermal R).
  double c_per_watt{0.5};
};

struct ChipSpec {
  std::string name{"generic"};
  int cores{4};
  Volt vdd_nominal{Volt{1.0}};
  MegaHertz freq_nominal{MegaHertz{2000.0}};
  VariationSpec variation{};
  CacheSpec cache{};
  PowerSpec power{};
};

/// Intel Core i5-4200U-like part: 0.844 V / 2.6 GHz, 2 cores, low-end;
/// exposes cache ECC errors before the crash point.
ChipSpec i5_4200u_spec();

/// Intel Core i7-3970X-like part: 1.365 V / 4.0 GHz, 6 cores, high-end;
/// wide core-to-core variation, cache ECC never fires before crash.
ChipSpec i7_3970x_spec();

/// 64-bit ARM Server-on-Chip (UniServer main chassis): 8 cores,
/// 0.98 V / 2.4 GHz.
ChipSpec arm_soc_spec();

/// The preset a command line names: "i5", "i7", and the ARM SoC for any
/// other name.
ChipSpec chip_spec_by_name(const std::string& name);

}  // namespace uniserver::hw
