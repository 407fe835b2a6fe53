// UniServerNode: the paper's full per-node stack wired together.
//
//   pre-deployment:  StressLog shmoo campaign -> MarginTable,
//                    Predictor trained on the campaign outcomes;
//   deployment:      Predictor advice picks an EOP from the margin
//                    table, the Hypervisor applies it and hosts VMs
//                    with the reliable memory domain + selective
//                    protection enabled;
//   runtime:         HealthLog monitors; an error-rate threshold
//                    crossing schedules a new StressLog cycle, which
//                    refreshes the margins (aging/adaptation loop).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "core/margin_table.h"
#include "daemons/predictor.h"
#include "daemons/stresslog.h"
#include "hwmodel/platform.h"
#include "hypervisor/hypervisor.h"

namespace uniserver::core {

struct UniServerConfig {
  hw::NodeSpec node_spec{};
  hv::HvConfig hv{};
  stress::ShmooConfig shmoo{};
  double guard_percent{1.0};
  /// DRAM worst-case temperature the StressLog characterizes against.
  /// Default is the paper's air-conditioned machine room; an edge
  /// deployment should set its real closet temperature (+headroom).
  Celsius dram_worst_case_temp{Celsius{30.0}};
  /// QoS floor: candidate EOPs below this fraction of nominal frequency
  /// are filtered out (1.0 = performance-neutral undervolting only;
  /// lower it to let the Predictor pick low-power modes).
  double min_freq_ratio{1.0};
  /// Training epochs for the Predictor.
  int predictor_epochs{40};
  /// Whether a HealthLog error-rate trigger schedules an automatic
  /// re-characterization at the next step (false = static margins).
  bool auto_recharacterize{true};
};

class UniServerNode {
 public:
  /// Risk budget handed to the Predictor when choosing an EOP (a
  /// ranking threshold on the coarsely calibrated logistic output; the
  /// guard band is the hard safety margin).
  static constexpr double kRiskBudget = 0.02;
  /// Learning rate of the Predictor's training.
  static constexpr double kPredictorLearningRate = 0.2;

  UniServerNode(const UniServerConfig& config, std::uint64_t seed);

  UniServerNode(const UniServerNode&) = delete;
  UniServerNode& operator=(const UniServerNode&) = delete;

  hw::ServerNode& server() { return *server_; }
  hv::Hypervisor& hypervisor() { return *hypervisor_; }
  daemons::Predictor& predictor() { return predictor_; }
  const MarginTable& margins() const { return margins_; }
  Seconds now() const { return now_; }
  int characterization_cycles() const { return stresslog_.cycles(); }

  /// Pre-deployment characterization: one StressLog cycle + predictor
  /// training. Returns the discovered margins.
  const daemons::SafeMargins& characterize();

  /// Applies the Predictor-chosen EOP from the margin table.
  daemons::Predictor::Advice deploy();

  /// One runtime step: hypervisor tick; if the HealthLog raised the
  /// re-characterization trigger since the last step, a new StressLog
  /// cycle runs first and the EOP is re-chosen.
  hv::TickReport step(Seconds window);

  /// Power at nominal vs at the current EOP for a workload (the
  /// "margins" energy-efficiency factor of Table 3).
  struct EnergyComparison {
    Watt nominal_power{Watt{0.0}};
    Watt eop_power{Watt{0.0}};
    double power_saving{0.0};
    double memory_power_saving{0.0};
    /// Energy for a fixed amount of work (runtime scales with 1/f).
    Joule nominal_energy{Joule{0.0}};
    Joule eop_energy{Joule{0.0}};
    /// nominal_energy / eop_energy — the "margins" EE factor.
    double energy_efficiency_factor{1.0};
  };
  EnergyComparison energy_comparison(const hw::WorkloadSignature& w,
                                     int active_cores) const;

 private:
  UniServerConfig config_;
  Rng rng_;
  std::unique_ptr<hw::ServerNode> server_;
  std::unique_ptr<hv::Hypervisor> hypervisor_;
  daemons::StressLog stresslog_;
  daemons::Predictor predictor_;
  MarginTable margins_;
  Seconds now_{Seconds{0.0}};
  bool recharacterize_pending_{false};
};

}  // namespace uniserver::core
