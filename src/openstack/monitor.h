// Fine-grained VM monitoring (paper §4.B).
//
// The UniServer OpenStack extension monitors VMs "at a finer granularity
// than the existing state-of-the-art" and uses it "to assess the
// susceptibility of VMs to experience catastrophic errors due to
// hardware faults". The monitor keeps per-VM sliding-window resource
// histories plus an error-exposure tally and condenses them into a
// susceptibility score the scheduler and migration policy can rank by:
// a big, busy, long-lived VM on relaxed memory attached to a risky node
// is the first thing to move.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace uniserver::osk {

/// One monitoring sample for a VM.
struct VmSample {
  double cpu_utilization{0.0};  ///< [0, 1]
  double memory_mb{0.0};
  /// Uncorrectable-error events that hit this VM in the window.
  std::uint64_t error_events{0};
};

/// Condensed per-VM view.
struct VmUsage {
  double mean_cpu{0.0};
  double peak_cpu{0.0};
  double mean_memory_mb{0.0};
  double peak_memory_mb{0.0};
  std::uint64_t total_errors{0};
  std::size_t samples{0};
};

class VmMonitor {
 public:
  struct Config {
    /// Samples retained per VM (sliding window).
    std::size_t window{128};
    /// Susceptibility weights (memory exposure, activity, history).
    double weight_memory{0.5};
    double weight_cpu{0.2};
    double weight_errors{0.3};
    /// Memory that saturates the memory-exposure term.
    double memory_scale_mb{16384.0};
    /// Error count that saturates the history term.
    double error_scale{5.0};
  };

  VmMonitor() : VmMonitor(Config{}) {}
  explicit VmMonitor(Config config) : config_(config) {}

  /// Ingests one sample for a VM.
  void record(std::uint64_t vm_id, const VmSample& sample);

  /// Drops a VM's history (deleted/migrated-away VM).
  void forget(std::uint64_t vm_id);

  /// Condensed usage over the retained window.
  VmUsage usage(std::uint64_t vm_id) const;

  /// Susceptibility in [0, 1]: how likely this VM is to be the victim
  /// of the next hardware fault, relative to its peers.
  double susceptibility(std::uint64_t vm_id) const;

  /// VM ids sorted most-susceptible-first (evacuation order). Ties
  /// break to the lower id.
  std::vector<std::uint64_t> ranked_by_susceptibility() const;

  /// The tracked ids among `candidates` (distinct), in the same order as
  /// ranked_by_susceptibility(); untracked candidates are left out.
  /// Each score is computed once, so ranking one node's residents costs
  /// O(k log k) rather than a fleet-wide sort. The no-argument overload
  /// stays as the reference.
  std::vector<std::uint64_t> ranked_by_susceptibility(
      const std::vector<std::uint64_t>& candidates) const;

  std::size_t tracked_vms() const { return slot_of_.size(); }

 private:
  Config config_;
  // Each tracked VM owns a slot: a ring of `window` samples at
  // samples_[slot * window], allocated once and reused through
  // free_slots_ after forget(). recorded_[slot] counts the samples ever
  // recorded into the slot, so sample k sits at k % window and the ring
  // holds the last min(recorded, window) of them. Nothing iterates
  // slot_of_ in an order that reaches an output: the full ranking sorts
  // by a total order.
  std::unordered_map<std::uint64_t, std::size_t> slot_of_;
  std::vector<std::uint64_t> recorded_;
  std::vector<VmSample> samples_;
  std::vector<std::size_t> free_slots_;
};

}  // namespace uniserver::osk
