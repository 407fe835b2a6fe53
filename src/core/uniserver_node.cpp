#include "core/uniserver_node.h"

namespace uniserver::core {

UniServerNode::UniServerNode(const UniServerConfig& config,
                             std::uint64_t seed)
    : config_(config),
      rng_(seed),
      server_(std::make_unique<hw::ServerNode>(config.node_spec,
                                               Rng(seed).fork(1).next())),
      hypervisor_(std::make_unique<hv::Hypervisor>(
          *server_, config.hv, Rng(seed).fork(2).next())),
      stresslog_(config.shmoo, Rng(seed).fork(3).next()) {
  hypervisor_->healthlog().subscribe_recharacterize(
      [this](Seconds) { recharacterize_pending_ = true; });
}

const daemons::SafeMargins& UniServerNode::characterize() {
  daemons::StressTargetParams params = daemons::default_stress_params(*server_);
  params.guard_percent = config_.guard_percent;
  params.dram_worst_case_temp = config_.dram_worst_case_temp;
  params.max_expected_dram_errors = config_.max_expected_dram_errors;
  const daemons::SafeMargins margins =
      stresslog_.run_cycle(*server_, params, now_);
  margins_.update(margins);

  // Train the Predictor on fresh shmoo outcomes at each frequency.
  std::vector<daemons::PredictorSample> samples;
  stress::ShmooCharacterizer characterizer(config_.shmoo);
  Rng campaign_rng = rng_.fork(0x7Ea1);
  for (const auto& point : margins.points) {
    const auto campaign = characterizer.campaign(
        server_->chip(), params.suite, point.freq, campaign_rng);
    auto batch = daemons::Predictor::samples_from_campaign(
        campaign, point.freq, server_->spec().chip.freq_nominal,
        params.suite);
    samples.insert(samples.end(), batch.begin(), batch.end());
  }
  Rng train_rng = rng_.fork(0x7Ea2);
  predictor_.train(samples, config_.predictor_epochs,
                   config_.predictor_learning_rate, train_rng);
  return margins_.current();
}

daemons::Predictor::Advice UniServerNode::deploy() {
  const auto& chip_spec = server_->spec().chip;
  auto candidates = margins_.eop_candidates(
      chip_spec.vdd_nominal, chip_spec.freq_nominal,
      server_->spec().dimm.nominal_refresh);
  // Enforce the QoS frequency floor before asking the Predictor.
  std::erase_if(candidates, [&](const hw::Eop& eop) {
    return eop.freq / chip_spec.freq_nominal <
           config_.min_freq_ratio - 1e-9;
  });
  auto advice = predictor_.advise(
      server_->chip(), hypervisor_->aggregate_signature(), candidates,
      config_.risk_budget);
  const bool chose_nominal =
      advice.eop.vdd.value >= chip_spec.vdd_nominal.value - 1e-12;
  if (chose_nominal && margins_.valid()) {
    // The statistical model trusts nothing — but every margin-table
    // candidate is *guaranteed* by the StressLog's guard-banded
    // characterization. Fall back to the most conservative one
    // (shallowest undervolt at nominal frequency, safe refresh) rather
    // than throwing the characterization away.
    const hw::Eop* safest = nullptr;
    for (const hw::Eop& eop : candidates) {
      const bool nominal_point =
          eop.vdd.value >= chip_spec.vdd_nominal.value - 1e-12;
      if (nominal_point) continue;
      if (eop.freq.value < chip_spec.freq_nominal.value - 1e-9) continue;
      if (safest == nullptr || eop.vdd.value > safest->vdd.value) {
        safest = &eop;
      }
    }
    if (safest != nullptr) {
      advice.eop = *safest;
      advice.mode = daemons::ExecutionMode::kHighPerformance;
      daemons::PredictorFeatures features;
      features.undervolt_percent =
          hw::undervolt_percent(chip_spec.vdd_nominal, safest->vdd);
      features.freq_ratio = safest->freq / chip_spec.freq_nominal;
      advice.predicted_crash_probability =
          predictor_.crash_probability(features);
    }
  }
  hypervisor_->apply_eop(advice.eop);
  return advice;
}

hv::TickReport UniServerNode::step(Seconds window) {
  if (recharacterize_pending_ && config_.auto_recharacterize) {
    recharacterize_pending_ = false;
    characterize();
    deploy();
  }
  const hv::TickReport report = hypervisor_->tick(now_, window);
  now_ += window;
  return report;
}

UniServerNode::EnergyComparison UniServerNode::energy_comparison(
    const hw::WorkloadSignature& w, int active_cores) const {
  EnergyComparison comparison;
  const auto& chip = server_->chip();
  const auto& spec = server_->spec();

  const auto nominal = chip.power().steady_state(
      spec.chip.vdd_nominal, spec.chip.freq_nominal, w.activity,
      active_cores);
  const hw::Eop eop = server_->eop();
  const auto at_eop =
      chip.power().steady_state(eop.vdd, eop.freq, w.activity, active_cores);

  comparison.nominal_power = nominal.power;
  comparison.eop_power = at_eop.power;
  comparison.power_saving =
      nominal.power.value <= 0.0
          ? 0.0
          : 1.0 - at_eop.power.value / nominal.power.value;

  const Watt mem_nominal = server_->memory().nominal_power();
  const Watt mem_now = server_->memory().power();
  comparison.memory_power_saving =
      mem_nominal.value <= 0.0
          ? 0.0
          : 1.0 - mem_now.value / mem_nominal.value;

  // Fixed-work energy: one "hour of work at nominal frequency",
  // including memory power over the (frequency-stretched) runtime.
  const Seconds work{3600.0};
  const double fr = eop.freq / spec.chip.freq_nominal;
  comparison.nominal_energy =
      chip.power().energy_for_work(spec.chip.vdd_nominal,
                                   spec.chip.freq_nominal, w.activity,
                                   active_cores, work) +
      mem_nominal * work;
  comparison.eop_energy =
      chip.power().energy_for_work(eop.vdd, eop.freq, w.activity,
                                   active_cores, work) +
      mem_now * Seconds{work.value / std::max(0.05, fr)};
  comparison.energy_efficiency_factor =
      comparison.eop_energy.value <= 0.0
          ? 1.0
          : comparison.nominal_energy.value / comparison.eop_energy.value;
  return comparison;
}

}  // namespace uniserver::core
