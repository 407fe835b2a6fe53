#include "core/ecosystem.h"

namespace uniserver::core {

Ecosystem::Ecosystem(const EcosystemConfig& config, std::uint64_t seed)
    : config_(config), seed_(seed) {
  cloud_ = osk::Cloud::make_uniform(config.cloud, config.node_spec,
                                    config.hv, config.nodes, seed);
}

void Ecosystem::commission() {
  if (!config_.enable_eop || commissioned_) return;
  commissioned_ = true;

  const MegaHertz freq = config_.target_freq.value > 0.0
                             ? config_.target_freq
                             : config_.node_spec.chip.freq_nominal;
  Rng rng(seed_ ^ 0xC0111551ULL);
  for (osk::ComputeNode* node : cloud_->node_ptrs()) {
    daemons::StressLog stresslog(config_.shmoo, rng.next());
    daemons::StressTargetParams params =
        daemons::default_stress_params(node->server());
    params.guard_percent = config_.guard_percent;
    params.freqs = {freq};
    const daemons::SafeMargins margins =
        stresslog.run_cycle(node->server(), params, Seconds{0.0});
    node->hypervisor().apply_margins(margins, freq);
    node->set_margins(margins);
  }
}

void Ecosystem::run(const std::vector<trace::VmRequest>& requests,
                    Seconds horizon) {
  commission();
  cloud_->run(requests, horizon);
}

Ecosystem::Summary Ecosystem::summary(
    const hw::WorkloadSignature& reference) const {
  Summary summary;
  const auto& nodes = const_cast<Ecosystem*>(this)->cloud_->node_ptrs();
  if (nodes.empty()) return summary;

  double undervolt = 0.0;
  double refresh = 0.0;
  double power = 0.0;
  double nominal_power = 0.0;
  for (osk::ComputeNode* node : nodes) {
    const auto& spec = node->server().spec();
    const hw::Eop eop = node->server().eop();
    undervolt += hw::undervolt_percent(spec.chip.vdd_nominal, eop.vdd);
    refresh += eop.refresh.value;

    const int cores = node->server().chip().num_cores();
    power += node->server().node_power(reference, cores).value;

    const auto nominal_op = node->server().chip().power().steady_state(
        spec.chip.vdd_nominal, spec.chip.freq_nominal, reference.activity,
        cores);
    nominal_power +=
        nominal_op.power.value + node->server().memory().nominal_power().value;
  }
  const double n = static_cast<double>(nodes.size());
  summary.mean_undervolt_percent = undervolt / n;
  summary.mean_refresh_s = refresh / n;
  summary.mean_node_power_w = power / n;
  summary.fleet_power_saving =
      nominal_power <= 0.0 ? 0.0 : 1.0 - power / nominal_power;
  return summary;
}

}  // namespace uniserver::core
