// Fine-grained VM monitoring (paper §4.B), kept in the control plane's
// one record per VM.
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
// The monitor's table is the cloud's only per-VM store: a row also
// holds the VM's node, SLA class and departure time, and an index of
// (departs_at, id) lists the rows due to leave. admit() is the only
// entry and forget() the only exit, each taking the row and its index
// entry together, so the tracked VMs are the active VMs by
// construction. A tracked VM gains one sample per control tick: VMs
// are placed before the node ticks, the migration orchestrator moves
// VMs only between them, and queries run only after them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "trace/arrivals.h"

namespace uniserver::osk {

class ComputeNode;

/// Condensed per-VM view.
struct VmUsage {
  double mean_cpu{0.0};
  double peak_cpu{0.0};
  double mean_memory_mb{0.0};
  double peak_memory_mb{0.0};
  std::uint64_t total_errors{0};
  std::size_t samples{0};
};

/// The control plane's record of one VM, from placement to exit.
struct VmRecord {
  ComputeNode* node{nullptr};  ///< moved by a migration cutover
  trace::SlaClass sla{trace::SlaClass::kBestEffort};
  /// Arrival + lifetime, fixed because it keys the departure index. A
  /// NaN time never departs.
  const double departs_at{std::numeric_limits<double>::quiet_NaN()};
  double cpu_utilization{0.0};  ///< the fixed usage profile
  double memory_mb{0.0};
  /// Set by admit(): the tick at admission; samples are the ticks after.
  std::uint64_t admitted_at{0};
  /// The tick of each hit still inside the window, oldest first.
  std::vector<std::uint64_t> hits{};
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

  /// Starts tracking a VM. Its first sample is the next advance().
  /// Returns false, changing nothing, if the id is already tracked.
  bool admit(std::uint64_t vm_id, VmRecord record);

  /// One control tick: every tracked VM gains a sample.
  void advance() { ++tick_; }

  /// One uncorrectable-error hit on a VM this tick. Unknown ids are
  /// ignored.
  void record_hit(std::uint64_t vm_id);

  /// Drops a VM's record and its departure entry (departed, lost).
  void forget(std::uint64_t vm_id);

  /// The tracked VM's record, or nullptr.
  VmRecord* find(std::uint64_t vm_id);

  /// Every tracked VM, in id order.
  const std::map<std::uint64_t, VmRecord>& records() const {
    return records_;
  }

  /// The tracked ids whose departs_at <= now, ascending.
  std::vector<std::uint64_t> due(double now) const;

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

  std::size_t tracked_vms() const { return records_.size(); }

 private:
  std::uint64_t tick_{0};
  std::map<std::uint64_t, VmRecord> records_;
  /// (departs_at, id) of every record with a non-NaN departure time.
  std::set<std::pair<double, std::uint64_t>> departures_;
};

}  // namespace uniserver::osk
