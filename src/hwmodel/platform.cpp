#include "hwmodel/platform.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

namespace uniserver::hw {

ServerNode::ServerNode(const NodeSpec& spec, std::uint64_t seed)
    : spec_(spec),
      chip_(spec.chip, Rng(seed).fork(1).next()),
      memory_(spec.dimm, spec.channels, spec.dimms_per_channel,
              Rng(seed).fork(2).next()),
      reliable_channel_(static_cast<std::size_t>(spec.channels), false) {
  eop_.vdd = spec.chip.vdd_nominal;
  eop_.freq = spec.chip.freq_nominal;
  eop_.refresh = spec.dimm.nominal_refresh;
  recount_domain_capacity();
}

void ServerNode::set_eop(const Eop& eop) {
  eop_ = eop;
  for (int c = 0; c < memory_.channels(); ++c) {
    memory_.set_channel_refresh(
        c, reliable_channel_[static_cast<std::size_t>(c)]
               ? spec_.dimm.nominal_refresh
               : eop.refresh);
  }
}

void ServerNode::pin_channel_reliable(int channel, bool reliable) {
  const auto index = static_cast<std::size_t>(channel);
  // Same domain: set_eop and the previous pin already gave the channel
  // this interval, and the capacity sums do not move.
  if (reliable_channel_.at(index) == reliable) return;
  reliable_channel_[index] = reliable;
  memory_.set_channel_refresh(
      channel, reliable ? spec_.dimm.nominal_refresh : eop_.refresh);
  recount_domain_capacity();
}

bool ServerNode::channel_reliable(int channel) const {
  return reliable_channel_.at(static_cast<std::size_t>(channel));
}

int ServerNode::reliable_channels() const {
  return static_cast<int>(std::count(reliable_channel_.begin(),
                                     reliable_channel_.end(), true));
}

void ServerNode::recount_domain_capacity() {
  reliable_mb_ = 0.0;
  relaxed_mb_ = 0.0;
  for (int c = 0; c < memory_.channels(); ++c) {
    double& sum = reliable_channel_[static_cast<std::size_t>(c)]
                      ? reliable_mb_
                      : relaxed_mb_;
    sum += channel_capacity_mb(c);
  }
}

void ServerNode::choose_cores(const WorkloadSignature& w, int active_cores,
                              std::vector<int>& cores,
                              std::vector<double>& margins) const {
  const int n = chip_.num_cores();
  const auto active =
      static_cast<std::size_t>(std::clamp(active_cores, 1, n));
  cores.resize(static_cast<std::size_t>(n));
  std::iota(cores.begin(), cores.end(), 0);
  margins.resize(active);
  if (!spec_.strong_cores_first) {
    cores.resize(active);
    for (std::size_t i = 0; i < active; ++i) {
      margins[i] = chip_.core(cores[i]).crash_margin(w, eop_.freq);
    }
    return;
  }
  // Strongest first: order every core by its crash voltage, evaluating
  // each core's margin once rather than once per comparison.
  std::vector<double> all_margins(cores.size());
  std::vector<double> volts(cores.size());
  for (std::size_t c = 0; c < cores.size(); ++c) {
    all_margins[c] = chip_.core(cores[c]).crash_margin(w, eop_.freq);
    volts[c] = chip_.core(cores[c]).crash_voltage_at(all_margins[c]).value;
  }
  std::sort(cores.begin(), cores.end(), [&](int a, int b) {
    return volts[static_cast<std::size_t>(a)] <
           volts[static_cast<std::size_t>(b)];
  });
  cores.resize(active);
  for (std::size_t i = 0; i < active; ++i) {
    margins[i] = all_margins[static_cast<std::size_t>(cores[i])];
  }
}

std::vector<int> ServerNode::active_core_set(const WorkloadSignature& w,
                                             int active_cores) const {
  std::vector<int> cores;
  std::vector<double> margins;
  choose_cores(w, active_cores, cores, margins);
  return cores;
}

Volt ServerNode::active_crash_voltage(const WorkloadSignature& w,
                                      int active_cores) const {
  std::vector<int> cores;
  std::vector<double> margins;
  choose_cores(w, active_cores, cores, margins);
  Volt worst{0.0};
  for (std::size_t i = 0; i < cores.size(); ++i) {
    worst = std::max(worst, chip_.core(cores[i]).crash_voltage_at(margins[i]));
  }
  return worst;
}

namespace {
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
}  // namespace

RunResult ServerNode::run(const WorkloadSignature& w, Seconds duration,
                          int active_cores, Rng& rng) {
  RunResult result;
  active_cores = std::clamp(active_cores, 1, chip_.num_cores());

  SteadyStateMemo& memo = steady_memo_;
  if (!memo.valid || !same_bits(memo.vdd.value, eop_.vdd.value) ||
      !same_bits(memo.freq.value, eop_.freq.value) ||
      !same_bits(memo.activity, w.activity) ||
      memo.active_cores != active_cores) {
    memo.op = chip_.power().steady_state(eop_.vdd, eop_.freq, w.activity,
                                         active_cores);
    memo.vdd = eop_.vdd;
    memo.freq = eop_.freq;
    memo.activity = w.activity;
    memo.active_cores = active_cores;
    memo.valid = true;
  }
  const PowerModel::Operating op = memo.op;
  result.chip_power = op.power;
  result.junction_temp = op.temp;

  // Environmental margin: hot silicon is slower, so running above the
  // characterization temperature eats into the undervolt margin. The
  // penalty is expressed as an effective supply reduction.
  const auto& var = spec_.chip.variation;
  const double temp_excess =
      std::max(0.0, op.temp.value - var.characterization_temp.value);
  const Volt v_effective{
      eop_.vdd.value *
      (1.0 - var.temp_margin_per_c * temp_excess)};

  // The active core set and margins, memoized like the steady state.
  // The key holds the aging loss rather than the age: the loss is what
  // crash_margin reads, and Chip::set_age writes it to every core.
  CoreSetMemo& cores_memo = core_set_memo_;
  const double aging_loss = chip_.core(0).aging_loss();
  if (!cores_memo.valid || cores_memo.workload != w.name ||
      !same_bits(cores_memo.didt_stress, w.didt_stress) ||
      !same_bits(cores_memo.freq.value, eop_.freq.value) ||
      !same_bits(cores_memo.aging_loss, aging_loss) ||
      cores_memo.active_cores != active_cores) {
    choose_cores(w, active_cores, run_cores_, run_margins_);
    sdc_memo_.valid = false;  // its sum runs over the old core set
    cores_memo.workload = w.name;
    cores_memo.didt_stress = w.didt_stress;
    cores_memo.freq = eop_.freq;
    cores_memo.aging_loss = aging_loss;
    cores_memo.active_cores = active_cores;
    cores_memo.valid = true;
  }

  // Crash check: the first active core whose per-run crash voltage
  // exceeds the (thermally derated) supply takes the node down at a
  // random point in the run.
  Volt worst_crash{0.0};
  for (std::size_t i = 0; i < run_cores_.size(); ++i) {
    const int c = run_cores_[i];
    const Volt vc = chip_.core(c).crash_voltage_run_at(run_margins_[i], rng);
    if (vc > worst_crash) {
      worst_crash = vc;
      if (vc >= v_effective) {
        result.crashed = true;
        result.crashing_core = c;
      }
    }
  }

  Seconds elapsed = duration;
  if (result.crashed) {
    elapsed = Seconds{duration.value * rng.uniform(0.05, 0.6)};
    result.time_to_crash = elapsed;
  }

  // Correctable cache ECC events accumulate while the node is up.
  result.cache_ecc_corrected = chip_.cache().sample_errors(
      v_effective, worst_crash, w, elapsed, rng);

  // Near-threshold CPU logic SDCs: uncorrected, per active core, rate
  // decaying exponentially with voltage headroom above that core's
  // crash point. The rate reads only v_effective and the core set, so it
  // is memoized on both, and the draw's Poisson limit on its mean.
  if (!result.crashed) {
    SdcRateMemo& sdc = sdc_memo_;
    if (!sdc.valid || !same_bits(sdc.v_effective.value, v_effective.value)) {
      double sdc_rate = 0.0;
      for (std::size_t i = 0; i < run_cores_.size(); ++i) {
        const Volt crash =
            chip_.core(run_cores_[i]).crash_voltage_at(run_margins_[i]);
        const double headroom_mv =
            v_effective.millivolts() - crash.millivolts();
        if (headroom_mv < 0.0) continue;
        sdc_rate += var.cpu_sdc_rate_at_crash_per_s *
                    std::exp(-headroom_mv / var.cpu_sdc_mv_constant);
      }
      sdc.rate_per_s = sdc_rate;
      sdc.v_effective = v_effective;
      sdc.valid = true;
    }
    result.cpu_sdcs = sdc_limit_.draw(rng, sdc.rate_per_s * elapsed.value);
  }

  const Watt memory_power = memory_.power();
  result.avg_power = op.power + memory_power;
  result.energy = result.avg_power * elapsed;
  return result;
}

SensorReadings ServerNode::read_sensors(const RunResult& run,
                                        Rng& rng) const {
  SensorReadings sensors;
  sensors.package_power =
      Watt{run.chip_power.value + rng.normal(0.0, kSensorPowerNoiseW)};
  sensors.memory_power =
      Watt{memory_.power().value + rng.normal(0.0, kSensorPowerNoiseW)};
  sensors.temperature =
      Celsius{run.junction_temp.value + rng.normal(0.0, kSensorTempNoiseC)};
  sensors.vdd = eop_.vdd;
  sensors.freq = eop_.freq;
  return sensors;
}

Watt ServerNode::node_power(const WorkloadSignature& w,
                            int active_cores) const {
  const auto op = chip_.power().steady_state(eop_.vdd, eop_.freq, w.activity,
                                             active_cores);
  return op.power + memory_.power();
}

}  // namespace uniserver::hw
