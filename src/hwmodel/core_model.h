// Per-core crash-voltage surface.
//
// The central observation of the paper (Figure 1, Table 2): every core
// of every manufactured chip crashes at a different undervolt depth, and
// that depth also depends on the running workload (voltage droop from
// dI/dt stress) and the clock frequency (timing slack). A CoreModel is a
// deterministic function of (workload, frequency) sampled once per part
// from the chip's VariationSpec, plus small run-to-run noise.
#pragma once

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "common/units.h"
#include "hwmodel/chip_spec.h"
#include "hwmodel/workload_signature.h"

namespace uniserver::hw {

class CoreModel {
 public:
  /// `base_margin` is the part-specific margin (chip baseline plus this
  /// core's offset); `interaction_seed` keys the stable core x workload
  /// interaction term.
  CoreModel(int id, const ChipSpec& spec, double base_margin,
            std::uint64_t interaction_seed);

  int id() const { return id_; }

  /// Part-stable undervolt margin (fraction of Vnom) under a workload
  /// at frequency f — no run noise. Clamped to [0.005, 0.5].
  double crash_margin(const WorkloadSignature& w, MegaHertz f) const;

  /// Part-stable crash voltage (no run noise).
  Volt crash_voltage(const WorkloadSignature& w, MegaHertz f) const;

  /// Crash voltage for one specific run (adds repetition noise).
  Volt crash_voltage_run(const WorkloadSignature& w, MegaHertz f,
                         Rng& rng) const;

  /// crash_voltage and crash_voltage_run given `margin`, the value of
  /// crash_margin(w, f) already evaluated by the caller: a node tick
  /// evaluates each active core's margin once and uses it for both.
  Volt crash_voltage_at(double margin) const;
  Volt crash_voltage_run_at(double margin, Rng& rng) const;

  /// Whether the core completes a run of workload w at (v, f).
  bool survives(Volt v, MegaHertz f, const WorkloadSignature& w,
                Rng& rng) const;

  /// The stable core x workload interaction margin term.
  double interaction(const std::string& workload_name) const;

  /// Aging: absolute margin already lost to wear-out (subtracted from
  /// every crash-margin evaluation). Set by Chip::set_age.
  void set_aging_loss(double loss) { aging_loss_ = loss; }
  double aging_loss() const { return aging_loss_; }

 private:
  int id_;
  ChipSpec spec_;
  double base_margin_;
  std::uint64_t interaction_seed_;
  double aging_loss_{0.0};
};

}  // namespace uniserver::hw
