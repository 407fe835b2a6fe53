// A complete server node: chip + channel-partitioned memory system +
// sensors. This is the hardware the daemons monitor and the hypervisor
// configures; running a workload at an EOP yields the observable
// outcome (crash/no-crash, error counters, energy) that everything
// above this layer consumes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "hwmodel/chip.h"
#include "hwmodel/dram_model.h"
#include "hwmodel/eop.h"
#include "hwmodel/workload_signature.h"

namespace uniserver::hw {

struct NodeSpec {
  ChipSpec chip{};
  DimmSpec dimm{};
  int channels{4};
  int dimms_per_channel{1};
  Celsius ambient{Celsius{25.0}};
  /// Core-allocation policy when fewer vCPUs run than cores exist:
  /// activate the strongest cores (deepest margins) first, so the
  /// system crash point at partial load is set by a strong core — the
  /// per-core heterogeneity exploit of paper §3.A.
  bool strong_cores_first{false};
  /// Gaussian noise of the on-board sensors.
  double sensor_power_noise_w{0.2};
  double sensor_temp_noise_c{0.5};
};

/// Node-level run outcome.
struct RunResult {
  bool crashed{false};
  /// Which core tripped first (valid when crashed).
  int crashing_core{-1};
  Seconds time_to_crash{Seconds{0.0}};
  std::uint64_t cache_ecc_corrected{0};
  /// Uncorrected near-threshold CPU logic SDCs during the run (grow
  /// steeply as the supply closes on the crash point).
  std::uint64_t cpu_sdcs{0};
  /// DRAM decay is sampled per channel by the memory-domain owner (the
  /// hypervisor), not here, so errors can be attributed to domains.
  Joule energy{Joule{0.0}};
  Watt avg_power{Watt{0.0}};
  /// The run's steady-state chip operating point (package power and
  /// junction temperature); read_sensors samples around this point
  /// instead of solving the power model again.
  Watt chip_power{Watt{0.0}};
  Celsius junction_temp{Celsius{25.0}};
};

/// Noisy sensor snapshot (what the HealthLog records).
struct SensorReadings {
  Watt package_power{Watt{0.0}};
  Watt memory_power{Watt{0.0}};
  Celsius temperature{Celsius{25.0}};
  Volt vdd{Volt{0.0}};
  MegaHertz freq{MegaHertz{0.0}};
};

class ServerNode {
 public:
  ServerNode(const NodeSpec& spec, std::uint64_t seed);

  const NodeSpec& spec() const { return spec_; }
  const Chip& chip() const { return chip_; }
  Chip& chip() { return chip_; }

  /// Advances the part's operating age (aging shrinks every core's
  /// undervolt margin; see VariationSpec::aging_loss_at_year).
  void advance_age(Seconds dt) {
    chip_.set_age(chip_.age() + dt);
  }
  MemorySystem& memory() { return memory_; }
  const MemorySystem& memory() const { return memory_; }

  /// Currently applied operating point (set_eop applies the refresh
  /// interval to all channels except those pinned to nominal).
  const Eop& eop() const { return eop_; }
  void set_eop(const Eop& eop);

  /// Pins a channel to nominal refresh (the "reliable memory domain").
  /// A call that leaves the channel in its domain changes nothing.
  void pin_channel_reliable(int channel, bool reliable);
  bool channel_reliable(int channel) const;
  /// Number of channels pinned at nominal refresh.
  int reliable_channels() const;

  double channel_capacity_mb(int channel) const {
    return static_cast<double>(memory_.channel_bits(channel)) / 8.0 /
           (1024.0 * 1024.0);
  }
  /// Pinned (reliable) and unpinned (relaxed) capacity, summed in channel
  /// order; recounted only by the constructor and pin_channel_reliable.
  double reliable_capacity_mb() const { return reliable_mb_; }
  double relaxed_capacity_mb() const { return relaxed_mb_; }
  /// Whole-node capacity. Every channel capacity is an integer bit count
  /// over 2^23, so the two sums and their total are exact (bit counts
  /// stay below 2^53): this equals total_bits() / 8 / 2^20 bit for bit.
  double memory_capacity_mb() const { return reliable_mb_ + relaxed_mb_; }

  /// Runs `w` on `active_cores` cores for `duration` at the current EOP.
  /// Cores are activated in index order, or strongest-first when
  /// NodeSpec::strong_cores_first is set. Non-const: the node memoizes
  /// its last PowerModel::steady_state result, keyed on every input of
  /// that call (vdd, frequency, activity, active cores), and its last
  /// active core set with the cores' crash margins, keyed on every input
  /// of choose_cores (workload name, dI/dt stress, frequency, aging
  /// loss, active cores). A run whose inputs are bitwise equal to the
  /// previous run's reuses them. A node has a single owner (its
  /// hypervisor), and no parallel body runs it.
  RunResult run(const WorkloadSignature& w, Seconds duration,
                int active_cores, Rng& rng);

  /// The cores that would be activated for a given vCPU count under the
  /// configured allocation policy (strongest = lowest crash voltage
  /// under the reference workload).
  std::vector<int> active_core_set(const WorkloadSignature& w,
                                   int active_cores) const;

  /// System crash voltage when only the chosen core set is active —
  /// at partial load under strong-first allocation this sits below the
  /// all-cores crash point, which is extra exploitable margin.
  Volt active_crash_voltage(const WorkloadSignature& w,
                            int active_cores) const;

  /// Noisy sensor snapshot around the operating point of `run`, the
  /// result of the last run() at the current EOP. The memory term reads
  /// the memory system's current power, so a channel pinned since the
  /// run is seen by the sensors.
  SensorReadings read_sensors(const RunResult& run, Rng& rng) const;

  /// Steady-state node power (chip + memory) at the current EOP.
  Watt node_power(const WorkloadSignature& w, int active_cores) const;

 private:
  /// The active core set (as active_core_set) and each chosen core's
  /// crash_margin, in the same order; every margin is evaluated once.
  void choose_cores(const WorkloadSignature& w, int active_cores,
                    std::vector<int>& cores,
                    std::vector<double>& margins) const;
  void recount_domain_capacity();

  /// Inputs and result of the last PowerModel::steady_state call.
  struct SteadyStateMemo {
    bool valid{false};
    Volt vdd{Volt{0.0}};
    MegaHertz freq{MegaHertz{0.0}};
    double activity{0.0};
    int active_cores{0};
    PowerModel::Operating op{};
  };

  /// Inputs of the choose_cores call that filled run_cores_ and
  /// run_margins_. strong_cores_first and the cores' base margins are
  /// fixed at construction, so they are not part of the key.
  struct CoreSetMemo {
    bool valid{false};
    std::string workload;
    double didt_stress{0.0};
    MegaHertz freq{MegaHertz{0.0}};
    double aging_loss{0.0};
    int active_cores{0};
  };

  NodeSpec spec_;
  Chip chip_;
  MemorySystem memory_;
  Eop eop_;
  std::vector<bool> reliable_channel_;
  double reliable_mb_{0.0};
  double relaxed_mb_{0.0};
  SteadyStateMemo steady_memo_;
  CoreSetMemo core_set_memo_;
  /// run()'s active core set and each core's crash margin.
  std::vector<int> run_cores_;
  std::vector<double> run_margins_;
};

}  // namespace uniserver::hw
