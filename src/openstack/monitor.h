// Fine-grained VM monitoring (paper §4.B).
//
// The UniServer OpenStack extension monitors VMs "at a finer granularity
// than the existing state-of-the-art" and uses it "to assess the
// susceptibility of VMs to experience catastrophic errors due to
// hardware faults". The monitor keeps per-VM sliding-window resource
// usage plus an error-exposure tally and condenses them into a
// susceptibility score the scheduler and migration policy can rank by:
// a big, busy, long-lived VM on relaxed memory attached to a risky node
// is the first thing to move.
//
// A resident VM's usage profile is fixed: hv::Vm's activity and memory
// have no mutator while the VM lives on a node. So the monitor records
// what changes and nothing else: each VM's profile once, at admission,
// and the control tick of each error hit. Its window of one sample per
// control tick is implied by the tick count.
//
// Invariant (the Cloud keeps it): an admitted VM gains exactly one
// sample per control tick until it is forgotten. Three facts ensure it:
// VMs are placed before the tick's node ticks; the migration
// orchestrator moves VMs only between node ticks; and every exit from
// the cloud's active set calls forget(). Queries run only after a
// tick's node ticks. Only runs the fuzz oracles reject break the
// invariant (a VM killed behind the control plane's back, a duplicate
// id), and those runs stop at the violation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace uniserver::osk {

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
  /// Control ticks of history per VM (sliding window).
  static constexpr std::size_t kWindow = 128;
  /// Susceptibility weights (memory exposure, activity, history).
  static constexpr double kWeightMemory = 0.5;
  static constexpr double kWeightCpu = 0.2;
  static constexpr double kWeightErrors = 0.3;
  /// Memory that saturates the memory-exposure term.
  static constexpr double kMemoryScaleMb = 16384.0;
  /// Error count that saturates the history term.
  static constexpr double kErrorScale = 5.0;

  /// Starts tracking a VM with its fixed usage profile. Its first
  /// sample is the next advance(). Re-admitting a tracked id starts its
  /// record afresh.
  void admit(std::uint64_t vm_id, double cpu_utilization, double memory_mb);

  /// One control tick: every tracked VM gains a sample.
  void advance() { ++tick_; }

  /// One uncorrectable-error hit on a VM this tick. Unknown ids are
  /// ignored.
  void record_hit(std::uint64_t vm_id);

  /// Drops a VM's record (deleted/migrated-away VM).
  void forget(std::uint64_t vm_id);

  /// Condensed usage over the window.
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

  std::size_t tracked_vms() const { return tracked_.size(); }

 private:
  struct Tracked {
    double cpu_utilization{0.0};
    double memory_mb{0.0};
    /// tick_ at admission; samples are the ticks after it.
    std::uint64_t admitted_at{0};
    /// The tick of each hit still inside the window, oldest first.
    std::vector<std::uint64_t> hits;
  };

  std::uint64_t tick_{0};
  // Nothing iterates tracked_ in an order that reaches an output: the
  // full ranking sorts by a total order.
  std::unordered_map<std::uint64_t, Tracked> tracked_;
};

}  // namespace uniserver::osk
