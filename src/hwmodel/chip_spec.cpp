#include "hwmodel/chip_spec.h"

namespace uniserver::hw {

ChipSpec i5_4200u_spec() {
  ChipSpec spec;
  spec.name = "Intel Core i5-4200U";
  spec.cores = 2;
  spec.vdd_nominal = Volt{0.844};
  spec.freq_nominal = MegaHertz::from_ghz(2.6);

  // Calibrated so that across the paper's 8 benchmarks the system-level
  // crash offsets land near [-10.0%, -11.2%] and the per-benchmark
  // core-to-core spread within [0%, 2.7%].
  spec.variation.margin_mean = 0.107;
  spec.variation.chip_sigma = 0.004;
  spec.variation.core_sigma = 0.024;
  spec.variation.didt_sensitivity = 0.008;
  spec.variation.interaction_sigma = 0.003;
  spec.variation.run_sigma = 0.0008;
  spec.variation.freq_margin_gain = 0.30;

  // Low-end part: cache is the weak structure; ECC errors precede the
  // crash by ~15 mV (Table 2: 1..17 correctable events per run).
  spec.cache.ecc_exposed_before_crash = true;
  spec.cache.ecc_onset_above_crash_mv = 23.0;
  spec.cache.ecc_rate_at_onset_per_s = 0.0032;
  spec.cache.ecc_rate_mv_constant = 5.0;
  spec.cache.banks = 8;
  spec.cache.bank_vmin_sigma = 0.010;

  // 15 W ULT part.
  spec.power.core_dynamic_nominal = Watt{5.0};
  spec.power.core_leakage_nominal = Watt{1.0};
  spec.power.uncore = Watt{3.0};
  spec.power.leakage_doubling_c = 30.0;
  spec.power.ambient = Celsius{25.0};
  spec.power.c_per_watt = 1.2;
  return spec;
}

ChipSpec i7_3970x_spec() {
  ChipSpec spec;
  spec.name = "Intel Core i7-3970X";
  spec.cores = 6;
  spec.vdd_nominal = Volt{1.365};
  spec.freq_nominal = MegaHertz::from_ghz(4.0);

  // Calibrated for Table 2: system crash offsets near [-8.4%, -15.4%]
  // across benchmarks and per-benchmark core spread within [3.7%, 8%].
  spec.variation.margin_mean = 0.154;
  spec.variation.chip_sigma = 0.006;
  spec.variation.core_sigma = 0.030;
  spec.variation.didt_sensitivity = 0.120;
  spec.variation.interaction_sigma = 0.008;
  spec.variation.run_sigma = 0.0010;
  spec.variation.freq_margin_gain = 0.32;

  // High-end part: cores crash before the cache ever errs.
  spec.cache.ecc_exposed_before_crash = false;
  spec.cache.banks = 12;
  spec.cache.bank_vmin_sigma = 0.012;

  // 150 W desktop part.
  spec.power.core_dynamic_nominal = Watt{20.0};
  spec.power.core_leakage_nominal = Watt{3.0};
  spec.power.uncore = Watt{12.0};
  spec.power.leakage_doubling_c = 30.0;
  spec.power.ambient = Celsius{25.0};
  spec.power.c_per_watt = 0.25;
  return spec;
}

ChipSpec arm_soc_spec() {
  ChipSpec spec;
  spec.name = "ARM64 Server-on-Chip";
  spec.cores = 8;
  spec.vdd_nominal = Volt{0.98};
  spec.freq_nominal = MegaHertz::from_ghz(2.4);

  // >30% combined timing/voltage margins reported for 28 nm ARM parts
  // (paper §1, Whatmough et al.): ~20% voltage margin on the mid-stress
  // workload plus a strong frequency-slack gain.
  spec.variation.margin_mean = 0.22;
  spec.variation.chip_sigma = 0.012;
  spec.variation.core_sigma = 0.014;
  spec.variation.didt_sensitivity = 0.08;
  spec.variation.interaction_sigma = 0.005;
  spec.variation.run_sigma = 0.0010;
  spec.variation.freq_margin_gain = 0.35;

  spec.cache.ecc_exposed_before_crash = true;
  spec.cache.ecc_onset_above_crash_mv = 12.0;
  spec.cache.ecc_rate_at_onset_per_s = 0.12;
  spec.cache.ecc_rate_mv_constant = 5.0;
  spec.cache.banks = 16;
  spec.cache.bank_vmin_sigma = 0.010;

  // ~35 W micro-server SoC.
  spec.power.core_dynamic_nominal = Watt{3.2};
  spec.power.core_leakage_nominal = Watt{0.5};
  spec.power.uncore = Watt{5.0};
  spec.power.leakage_doubling_c = 30.0;
  spec.power.ambient = Celsius{25.0};
  spec.power.c_per_watt = 0.8;
  return spec;
}

ChipSpec chip_spec_by_name(const std::string& name) {
  if (name == "i5") return i5_4200u_spec();
  if (name == "i7") return i7_3970x_spec();
  return arm_soc_spec();
}

}  // namespace uniserver::hw
