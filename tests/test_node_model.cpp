// Differential suite for the node tick: ServerNode::run evaluates each
// model once per tick (one steady-state solve and one active core set
// with its crash margins, each memoized across ticks on its full input;
// one cached memory power), and read_sensors samples around the run's
// operating point. The node's domain capacities and each DRAM channel's
// error rates are cached at their owner too.
// Every tick must match, bit for bit, a reference built here from the
// public per-call models: PowerModel::steady_state, CoreModel's
// crash_voltage / crash_voltage_run, MemorySystem::dimm_power_sum,
// MemorySystem::error_rate_per_s, DimmModel::uncorrectable_fraction and
// a fresh walk of the channels.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "hwmodel/chip_spec.h"
#include "hwmodel/platform.h"
#include "hypervisor/hypervisor.h"
#include "stress/profiles.h"

namespace uniserver::hw {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

std::vector<int> reference_core_set(const ServerNode& node,
                                    const WorkloadSignature& w,
                                    int active_cores) {
  const Chip& chip = node.chip();
  const MegaHertz f = node.eop().freq;
  active_cores = std::clamp(active_cores, 1, chip.num_cores());
  std::vector<int> cores(static_cast<std::size_t>(chip.num_cores()));
  std::iota(cores.begin(), cores.end(), 0);
  if (node.spec().strong_cores_first) {
    std::sort(cores.begin(), cores.end(), [&](int a, int b) {
      return chip.core(a).crash_voltage(w, f).value <
             chip.core(b).crash_voltage(w, f).value;
    });
  }
  cores.resize(static_cast<std::size_t>(active_cores));
  return cores;
}

/// The node tick as the per-call models define it: every model is
/// evaluated afresh, nothing is reused.
RunResult reference_run(const ServerNode& node, const WorkloadSignature& w,
                        Seconds duration, int active_cores, Rng& rng) {
  const Chip& chip = node.chip();
  const Eop& eop = node.eop();
  RunResult result;
  active_cores = std::clamp(active_cores, 1, chip.num_cores());
  const auto op = chip.power().steady_state(eop.vdd, eop.freq, w.activity,
                                            active_cores);
  result.chip_power = op.power;
  result.junction_temp = op.temp;
  const auto& var = node.spec().chip.variation;
  const double temp_excess =
      std::max(0.0, op.temp.value - var.characterization_temp.value);
  const Volt v_effective{eop.vdd.value *
                         (1.0 - var.temp_margin_per_c * temp_excess)};
  Volt worst_crash{0.0};
  for (const int c : reference_core_set(node, w, active_cores)) {
    const Volt vc = chip.core(c).crash_voltage_run(w, eop.freq, rng);
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
  result.cache_ecc_corrected =
      chip.cache().sample_errors(v_effective, worst_crash, w, elapsed, rng);
  if (!result.crashed) {
    double sdc_rate = 0.0;
    for (const int c : reference_core_set(node, w, active_cores)) {
      const Volt crash = chip.core(c).crash_voltage(w, eop.freq);
      const double headroom_mv =
          v_effective.millivolts() - crash.millivolts();
      if (headroom_mv < 0.0) continue;
      sdc_rate += var.cpu_sdc_rate_at_crash_per_s *
                  std::exp(-headroom_mv / var.cpu_sdc_mv_constant);
    }
    result.cpu_sdcs = rng.poisson(sdc_rate * elapsed.value);
  }
  result.avg_power = op.power + node.memory().dimm_power_sum();
  result.energy = result.avg_power * elapsed;
  return result;
}

SensorReadings reference_sensors(const ServerNode& node,
                                 const WorkloadSignature& w,
                                 int active_cores, Rng& rng) {
  const Eop& eop = node.eop();
  const auto op = node.chip().power().steady_state(eop.vdd, eop.freq,
                                                   w.activity, active_cores);
  const NodeSpec& spec = node.spec();
  SensorReadings sensors;
  sensors.package_power =
      Watt{op.power.value + rng.normal(0.0, spec.sensor_power_noise_w)};
  sensors.memory_power =
      Watt{node.memory().dimm_power_sum().value +
           rng.normal(0.0, spec.sensor_power_noise_w)};
  sensors.temperature =
      Celsius{op.temp.value + rng.normal(0.0, spec.sensor_temp_noise_c)};
  sensors.vdd = eop.vdd;
  sensors.freq = eop.freq;
  return sensors;
}

/// Checks the node's reliable and relaxed capacity against a fresh
/// ascending channel walk; returns the walk's reliable MB.
double expect_capacities(const ServerNode& node, const std::string& where) {
  SCOPED_TRACE(where);
  double reliable = 0.0;
  double relaxed = 0.0;
  for (int c = 0; c < node.memory().channels(); ++c) {
    const double mb =
        static_cast<double>(node.memory().channel_bits(c)) / 8.0 /
        (1024.0 * 1024.0);
    if (node.channel_reliable(c)) {
      reliable += mb;
    } else {
      relaxed += mb;
    }
  }
  EXPECT_EQ(bits(node.reliable_capacity_mb()), bits(reliable));
  EXPECT_EQ(bits(node.relaxed_capacity_mb()), bits(relaxed));
  return reliable;
}

/// sample_error_split as the per-call models define it.
MemorySystem::ErrorSplit reference_split(const MemorySystem& memory,
                                         int channel, Seconds window,
                                         Celsius temp, Rng& rng) {
  MemorySystem::ErrorSplit split;
  const double rate = memory.error_rate_per_s(channel, temp);
  if (rate <= 0.0 || window.value <= 0.0) return split;
  const std::uint64_t events = rng.poisson(rate * window.value);
  if (events == 0) return split;
  const DimmModel& dimm = memory.dimm(channel, 0);
  if (!dimm.spec().ecc) {
    split.uncorrectable = events;
    return split;
  }
  split.uncorrectable = rng.binomial(
      events,
      dimm.uncorrectable_fraction(memory.channel_refresh(channel), temp));
  split.corrected = events - split.uncorrectable;
  return split;
}

void expect_same(const RunResult& got, const RunResult& want,
                 const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(got.crashed, want.crashed);
  EXPECT_EQ(got.crashing_core, want.crashing_core);
  EXPECT_EQ(bits(got.time_to_crash.value), bits(want.time_to_crash.value));
  EXPECT_EQ(got.cache_ecc_corrected, want.cache_ecc_corrected);
  EXPECT_EQ(got.cpu_sdcs, want.cpu_sdcs);
  EXPECT_EQ(bits(got.energy.value), bits(want.energy.value));
  EXPECT_EQ(bits(got.avg_power.value), bits(want.avg_power.value));
  EXPECT_EQ(bits(got.chip_power.value), bits(want.chip_power.value));
  EXPECT_EQ(bits(got.junction_temp.value), bits(want.junction_temp.value));
}

void expect_same(const SensorReadings& got, const SensorReadings& want,
                 const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(bits(got.package_power.value), bits(want.package_power.value));
  EXPECT_EQ(bits(got.memory_power.value), bits(want.memory_power.value));
  EXPECT_EQ(bits(got.temperature.value), bits(want.temperature.value));
  EXPECT_EQ(bits(got.vdd.value), bits(want.vdd.value));
  EXPECT_EQ(bits(got.freq.value), bits(want.freq.value));
}

/// Both streams must have drawn the same number of values.
void expect_same_stream(Rng a, Rng b, const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(a.next(), b.next());
}

const std::vector<std::string>& profile_names() {
  static const std::vector<std::string> names = {"bzip2", "mcf", "h264ref",
                                                 "namd", "milc"};
  return names;
}

WorkloadSignature profile(const std::string& name) {
  return stress::spec_profile(name).value();
}

struct Tally {
  int ticks{0};
  int crashes{0};
  int sdc_ticks{0};
  int ecc_ticks{0};
  int repeated_inputs{0};
  int name_only_changes{0};
  int mid_tick_pins{0};
  int pin_changes{0};
};

/// Drives one node through `ticks` seeded control-loop steps and checks
/// every step against the reference.
void drive(std::uint64_t seed, bool strong_cores_first, int ticks,
           Tally& tally) {
  NodeSpec spec;
  spec.chip = arm_soc_spec();
  spec.strong_cores_first = strong_cores_first;
  ServerNode node(spec, seed);
  hv::Hypervisor hypervisor(node, hv::HvConfig{}, seed ^ 0x5eedULL);
  Rng ops(seed * 7919 + 1);
  Rng rng(seed * 104729 + 3);
  const MegaHertz fnom = spec.chip.freq_nominal;
  const std::vector<MegaHertz> freqs = {fnom, fnom * 0.8, fnom * 0.6};
  const std::vector<Seconds> refreshes = {
      spec.dimm.nominal_refresh, Seconds{0.5}, Seconds{1.5}, Seconds{5.0}};
  std::uint64_t next_vm = 1;
  std::vector<std::uint64_t> resident;
  double last_activity = -1.0;
  std::string last_name;
  double last_didt = -1.0;
  int last_cores = -1;
  Eop last_eop = node.eop();
  double last_reliable_mb =
      expect_capacities(node, "seed " + std::to_string(seed) + " start");

  for (int t = 0; t < ticks; ++t) {
    const std::string where =
        "seed " + std::to_string(seed) + " tick " + std::to_string(t);
    bool direct = false;
    bool rename = false;
    switch (ops.uniform_u64(9)) {
      case 0:
      case 1:
        break;  // unchanged inputs: the memoized operating point
      case 2: {
        Eop eop = node.eop();
        eop.freq = freqs[ops.uniform_u64(freqs.size())];
        if (ops.bernoulli(0.25)) {
          eop.vdd = spec.chip.vdd_nominal;
        } else {
          // Near the crash point of a loaded or an idle node, so that
          // idle-stress ticks also reach the crash and SDC paths.
          const WorkloadSignature near =
              ops.bernoulli(0.8) ? profile("bzip2") : idle_signature();
          const Volt crash =
              node.chip().system_crash_voltage(near, eop.freq);
          eop.vdd = crash + Volt::from_mv(ops.uniform(-6.0, 30.0));
        }
        eop.refresh = refreshes[ops.uniform_u64(refreshes.size())];
        hypervisor.apply_eop(eop);
        break;
      }
      case 3:
        node.pin_channel_reliable(
            static_cast<int>(ops.uniform_u64(
                static_cast<std::uint64_t>(spec.channels))),
            ops.bernoulli(0.5));
        break;
      case 4: {
        hv::Vm vm;
        vm.id = next_vm++;
        vm.vcpus = static_cast<int>(ops.uniform_int(1, 3));
        vm.memory_mb = ops.uniform(256.0, 4096.0);
        vm.workload =
            profile(profile_names()[ops.uniform_u64(profile_names().size())]);
        if (hypervisor.create_vm(vm)) resident.push_back(vm.id);
        break;
      }
      case 5:
        if (!resident.empty()) {
          const std::size_t i = ops.uniform_u64(resident.size());
          hypervisor.destroy_vm(resident[i]);
          resident.erase(resident.begin() + static_cast<std::ptrdiff_t>(i));
        }
        break;
      case 6:
        node.advance_age(Seconds{86400.0 * ops.uniform(1.0, 120.0)});
        break;
      case 7:
        direct = true;
        break;
      default:
        rename = true;
        break;
    }
    // Every op above may pin or release a channel (apply_eop, create_vm
    // and destroy_vm re-lay the domains).
    double reliable_mb = expect_capacities(node, where + " op");
    if (reliable_mb != last_reliable_mb) ++tally.pin_changes;

    WorkloadSignature w;
    int active_cores = 0;
    if (direct) {
      // Same workload, varying core count: only the core count moves.
      w = profile("h264ref");
      active_cores = static_cast<int>(ops.uniform_int(1, 8));
    } else if (rename) {
      // Only the name moves when the last tick ran at the idle stress:
      // idle <-> an aggregate at the idle stress. The name keys the
      // core x workload interaction term of every crash margin.
      w = idle_signature();
      if (last_name == w.name) w.name = "vm-aggregate";
      active_cores = std::max(last_cores, 1);
    } else {
      w = hypervisor.aggregate_signature();
      for (const auto& [id, vm] : hypervisor.vms()) active_cores += vm.vcpus;
      active_cores = std::clamp(active_cores, 1, hypervisor.usable_cores());
    }
    if (bits(w.activity) == bits(last_activity) &&
        active_cores == last_cores && node.eop() == last_eop) {
      ++tally.repeated_inputs;
    }
    if (w.name != last_name && bits(w.didt_stress) == bits(last_didt) &&
        active_cores == last_cores && node.eop() == last_eop) {
      ++tally.name_only_changes;
    }
    last_activity = w.activity;
    last_name = w.name;
    last_didt = w.didt_stress;
    last_cores = active_cores;
    last_eop = node.eop();

    const Seconds window{60.0};
    Rng ref_rng = rng;
    const RunResult got = node.run(w, window, active_cores, rng);
    const RunResult want =
        reference_run(node, w, window, active_cores, ref_rng);
    expect_same(got, want, where + " run");
    expect_same_stream(rng, ref_rng, where + " run stream");

    // The hypervisor may pin a channel between the run and the sensor
    // read (memory-side isolation); the sensors must see it.
    if (ops.bernoulli(0.15)) {
      node.pin_channel_reliable(
          static_cast<int>(ops.uniform_u64(
              static_cast<std::uint64_t>(spec.channels))),
          true);
      ++tally.mid_tick_pins;
      reliable_mb = expect_capacities(node, where + " mid-tick pin");
    }
    last_reliable_mb = reliable_mb;
    Rng ref_sensor_rng = rng;
    const SensorReadings sensors = node.read_sensors(got, rng);
    const SensorReadings want_sensors =
        reference_sensors(node, w, active_cores, ref_sensor_rng);
    expect_same(sensors, want_sensors, where + " sensors");
    expect_same_stream(rng, ref_sensor_rng, where + " sensor stream");

    ++tally.ticks;
    if (got.crashed) ++tally.crashes;
    if (got.cpu_sdcs > 0) ++tally.sdc_ticks;
    if (got.cache_ecc_corrected > 0) ++tally.ecc_ticks;
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(NodeModelDifferential, TickMatchesPerCallReferenceUnderChurn) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    drive(seed, seed % 2 == 0, 400, tally);
    ASSERT_FALSE(HasFailure()) << "seed " << seed;
  }
  // The sequences reach every path the reuse touches: memo hits,
  // name-only workload changes, crashes, SDCs, ECC events and channel
  // pins between run and read.
  EXPECT_EQ(tally.ticks, 12 * 400);
  EXPECT_GT(tally.repeated_inputs, 200);
  EXPECT_GT(tally.name_only_changes, 50);
  EXPECT_GT(tally.crashes, 10);
  EXPECT_GT(tally.sdc_ticks, 10);
  EXPECT_GT(tally.ecc_ticks, 10);
  EXPECT_GT(tally.mid_tick_pins, 100);
  EXPECT_GT(tally.pin_changes, 200);
}

TEST(NodeModelDifferential, ActiveCoreSetAndCrashVoltageMatchReference) {
  for (const bool strong : {false, true}) {
    NodeSpec spec;
    spec.chip = arm_soc_spec();
    spec.strong_cores_first = strong;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      ServerNode node(spec, seed);
      for (const auto& name : profile_names()) {
        const WorkloadSignature w = profile(name);
        for (int active = 0; active <= 9; ++active) {
          const std::vector<int> want = reference_core_set(node, w, active);
          EXPECT_EQ(node.active_core_set(w, active), want);
          Volt worst{0.0};
          for (const int c : want) {
            worst = std::max(
                worst, node.chip().core(c).crash_voltage(w, node.eop().freq));
          }
          EXPECT_EQ(bits(node.active_crash_voltage(w, active).value),
                    bits(worst.value));
        }
      }
    }
  }
}

TEST(NodeModelDifferential, MarginReuseMatchesCrashVoltageCalls) {
  const Chip chip(arm_soc_spec(), 11);
  const MegaHertz f = arm_soc_spec().freq_nominal * 0.8;
  Rng rng(5);
  for (const auto& name : profile_names()) {
    const WorkloadSignature w = profile(name);
    for (const CoreModel& core : chip.cores()) {
      const double margin = core.crash_margin(w, f);
      EXPECT_EQ(bits(core.crash_voltage_at(margin).value),
                bits(core.crash_voltage(w, f).value));
      Rng ref = rng;
      const Volt got = core.crash_voltage_run_at(margin, rng);
      EXPECT_EQ(bits(got.value), bits(core.crash_voltage_run(w, f, ref).value));
      expect_same_stream(rng, ref, name);
    }
  }
}

TEST(NodeModelDifferential, CachedMemoryPowerFollowsEveryRefreshChange) {
  MemorySystem memory(DimmSpec{}, 4, 2, 17);
  EXPECT_EQ(bits(memory.power().value), bits(memory.dimm_power_sum().value));
  Rng rng(3);
  const std::vector<double> intervals = {0.064, 0.5, 1.5, 5.0, 0.0, 0.064};
  for (int step = 0; step < 500; ++step) {
    const int channel = static_cast<int>(rng.uniform_u64(4));
    memory.set_channel_refresh(
        channel, Seconds{intervals[rng.uniform_u64(intervals.size())]});
    ASSERT_EQ(bits(memory.power().value),
              bits(memory.dimm_power_sum().value))
        << "step " << step;
  }
}

TEST(NodeModelDifferential, CachedErrorRateFollowsEveryRefreshChange) {
  // 0.0 disables refresh (rate 0); 0.064 appears twice, so some sets
  // repeat the current interval. 45 C and 60 C at 5 s give enough weak
  // cells for ECC to miss some events.
  const std::vector<double> intervals = {0.064, 0.5, 1.5, 5.0, 0.0, 0.064};
  const std::vector<double> temps = {25.0, 30.0, 45.0, 60.0};
  const std::vector<double> windows = {60.0, 3600.0};
  for (const bool ecc : {false, true}) {
    DimmSpec spec;
    spec.ecc = ecc;
    MemorySystem memory(spec, 4, 2, 17);
    Rng ops(ecc ? 5 : 3);
    Rng rng(11);
    Celsius temp{30.0};
    int refresh_changes = 0;
    int repeated_sets = 0;
    int temp_changes = 0;
    int event_samples = 0;
    int uncorrectable_samples = 0;
    for (int step = 0; step < 500; ++step) {
      const std::string where = std::string(ecc ? "ecc" : "no ecc") +
                                " step " + std::to_string(step);
      const double u = ops.uniform();
      if (u < 0.6) {
        const int channel = static_cast<int>(ops.uniform_u64(4));
        const Seconds interval{intervals[ops.uniform_u64(intervals.size())]};
        if (bits(memory.channel_refresh(channel).value) ==
            bits(interval.value)) {
          ++repeated_sets;
        } else {
          ++refresh_changes;
        }
        memory.set_channel_refresh(channel, interval);
      } else if (u < 0.8) {
        temp = Celsius{temps[ops.uniform_u64(temps.size())]};
        ++temp_changes;
      }
      // Every channel is sampled every step, so each memo is warm at the
      // current temperature when its interval next changes.
      for (int c = 0; c < memory.channels(); ++c) {
        const Seconds window{windows[ops.uniform_u64(windows.size())]};
        Rng ref_rng = rng;
        const auto got = memory.sample_error_split(c, window, temp, rng);
        const auto want = reference_split(memory, c, window, temp, ref_rng);
        ASSERT_EQ(got.corrected, want.corrected) << where << " ch " << c;
        ASSERT_EQ(got.uncorrectable, want.uncorrectable)
            << where << " ch " << c;
        expect_same_stream(rng, ref_rng, where + " stream");
        ASSERT_FALSE(HasFailure());
        if (got.corrected + got.uncorrectable > 0) ++event_samples;
        if (ecc && got.uncorrectable > 0) ++uncorrectable_samples;
      }
    }
    SCOPED_TRACE(ecc ? "ecc" : "no ecc");
    EXPECT_GT(refresh_changes, 150);
    EXPECT_GT(repeated_sets, 40);
    EXPECT_GT(temp_changes, 50);
    EXPECT_GT(event_samples, 300);
    if (ecc) {
      EXPECT_GT(uncorrectable_samples, 50);
    }
  }
}

}  // namespace
}  // namespace uniserver::hw
