// The UniServer error-resilient hypervisor (paper §4.A).
//
// A KVM-like symmetric hypervisor enhanced with the UniServer roles:
//   - applies StressLog margins / Predictor advice to pick a just-right
//     EOP that strips unnecessary guard-bands;
//   - hosts its own structures (and critical VMs) in the reliable
//     memory domain so refresh relaxation cannot corrupt them;
//   - transparently masks correctable errors from the guests;
//   - isolates cores and memory channels with high error rates, as
//     reported by the HealthLog;
//   - selectively protects the crucial objects identified by fault
//     injection (checkpoint/checksum), trading a small CPU overhead for
//     resilience of the remaining exposure.
//
// Everything observable flows through the HealthLog so the daemons and
// the cloud layer above see one consistent stream.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "daemons/healthlog.h"
#include "daemons/stresslog.h"
#include "hwmodel/platform.h"
#include "hypervisor/footprint.h"
#include "hypervisor/objects.h"
#include "hypervisor/protection.h"
#include "hypervisor/vm.h"

namespace uniserver::hv {

/// The selective-protection plan in force until a characterization-
/// derived one is installed: fraction of crucial objects covered, and
/// CPU overhead (fraction of one core).
inline constexpr double kDefaultProtectionCoverage = 0.9;
inline constexpr double kDefaultProtectionCpuOverhead = 0.015;
/// Runtime overhead of periodic VM checkpointing (fraction of node
/// power).
inline constexpr double kCheckpointOverhead = 0.01;

/// Construction-time settings; the hypervisor never writes them.
struct HvConfig {
  /// Host the hypervisor (and critical VMs) at nominal refresh.
  bool use_reliable_domain{true};
  /// Boot with the default protection plan on (checkpoint/checksum of
  /// the crucial objects found by fault injection).
  bool selective_protection{true};
  /// Retire a core after this many correctable errors per hour.
  double core_isolation_threshold_per_hour{50.0};
  /// Pin a relaxed channel back to nominal refresh after this many
  /// uncorrectable decay events per hour (memory-side isolation).
  double channel_isolation_threshold_per_hour{20.0};
  /// Probability a guest survives a single in-VM memory SDC.
  double guest_sdc_survival{0.7};
  /// Fraction of CPU time spent in hypervisor context (a CPU SDC lands
  /// in hypervisor state with this probability, in a guest otherwise).
  double hv_cpu_time_share{0.05};
  /// Periodic VM checkpointing: a guest killed by an SDC is restored
  /// from its last checkpoint instead of being lost (the "transparently
  /// mask errors from upper software layers" mechanism of §4.A).
  bool vm_checkpointing{false};
};

/// Sums over the resident VMs. The hypervisor recounts them in one pass,
/// in ascending VM id, whenever the VM set changes; a resident VM is
/// never mutated, so nothing else can make them stale.
struct VmTotals {
  int vcpus{0};
  double memory_mb{0.0};
  int critical_vms{0};
  double critical_mb{0.0};
  /// Memory of the VMs outside the reliable domain: every VM, or the
  /// non-critical ones when the reliable domain is in use.
  double relaxed_mb{0.0};
  /// Electrical signature weighted by vCPU count; idle when no VM runs.
  hw::WorkloadSignature signature{hw::idle_signature()};
};

/// Outcome of one hypervisor control-loop tick.
struct TickReport {
  std::uint64_t cache_ecc_masked{0};
  /// Uncorrected near-threshold CPU SDCs this tick.
  std::uint64_t cpu_sdcs{0};
  /// DRAM events absorbed by DIMM ECC (only with ECC DIMMs).
  std::uint64_t dram_ecc_masked{0};
  /// Uncorrectable decay events on relaxed channels.
  std::uint64_t dram_errors_relaxed{0};
  std::uint64_t dram_errors_into_hv{0};
  /// Crucial-object hits absorbed by selective protection.
  std::uint64_t protection_saves{0};
  /// Cores retired and channels isolated for error pressure this tick.
  std::uint64_t cores_retired{0};
  std::uint64_t channels_isolated{0};
  std::vector<std::uint64_t> vms_killed;
  /// VMs that absorbed an SDC and survived (guest-level tolerance) —
  /// the per-VM exposure stream the cloud's VmMonitor consumes.
  std::vector<std::uint64_t> vms_hit;
  /// VMs restored from a checkpoint after a fatal SDC (they lose up to
  /// one checkpoint interval of work but keep running).
  std::vector<std::uint64_t> vms_restored;
  bool hypervisor_fatal{false};
  bool node_crash{false};
  Joule energy{Joule{0.0}};
  Watt avg_power{Watt{0.0}};
};

/// Cumulative counters since boot; a cloud publishes their fleet sums.
struct HvStats {
  std::uint64_t ticks{0};
  /// Correctable errors masked from the guests, by source.
  std::uint64_t cache_ecc_masked{0};
  std::uint64_t dram_ecc_masked{0};
  std::uint64_t cpu_sdcs{0};
  std::uint64_t dram_errors_relaxed{0};
  std::uint64_t vm_kills{0};
  std::uint64_t vm_restores{0};
  /// SDCs consumed by crucial hypervisor objects, and the ticks with at
  /// least one (each such tick takes the node down).
  std::uint64_t hv_fatal_events{0};
  std::uint64_t fatal_ticks{0};
  std::uint64_t node_crashes{0};
  std::uint64_t protection_saves{0};
  /// EOP-safety accounting (checked by the fuzz oracles): every
  /// uncorrected error the dispatcher examines must end in exactly one
  /// explicit disposition — fatal, protection save, benign absorption,
  /// guest hit/restore/kill, or a fall on unallocated memory. `seen`
  /// counts errors entering the dispatcher; `resolved` counts the
  /// dispositions. The two are equal iff nothing silently survived.
  std::uint64_t uncorrected_seen{0};
  std::uint64_t uncorrected_resolved{0};
  Joule energy{Joule{0.0}};
  Seconds uptime{Seconds{0.0}};
  std::uint64_t masked_errors() const {
    return cache_ecc_masked + dram_ecc_masked;
  }
};

class Hypervisor {
 public:
  Hypervisor(hw::ServerNode& node, const HvConfig& config,
             std::uint64_t seed);

  const HvConfig& config() const { return config_; }
  daemons::HealthLog& healthlog() { return healthlog_; }
  const daemons::HealthLog& healthlog() const { return healthlog_; }

  // -- VM lifecycle ---------------------------------------------------
  bool create_vm(const Vm& vm);
  bool destroy_vm(std::uint64_t id);
  std::size_t vm_count() const { return vms_.size(); }
  const std::map<std::uint64_t, Vm>& vms() const { return vms_; }
  const VmTotals& vm_totals() const { return totals_; }

  // -- EOP control ----------------------------------------------------
  /// Applies the safe margins from a StressLog cycle at a frequency,
  /// keeping the configured guard semantics (margins are already
  /// guard-banded by the StressLog).
  void apply_margins(const daemons::SafeMargins& margins, MegaHertz freq);
  /// Applies an already-decided EOP. The layout does not depend on it:
  /// the node keeps pinned channels at nominal refresh.
  void apply_eop(const hw::Eop& eop);

  /// Installs a characterization-derived selective-protection plan; it
  /// replaces the default plan, and protection is on iff it protects
  /// at least one category.
  void apply_protection_plan(const ProtectionPlan& plan);
  /// The plan in force (the default one until a plan is installed).
  const ProtectionPlan& protection_plan() const { return protection_plan_; }
  bool protection_enabled() const { return protection_enabled_; }
  const hw::Eop& eop() const { return node_.eop(); }

  // -- resilience -----------------------------------------------------
  /// Number of cores excluded from scheduling.
  int retired_cores() const { return retired_cores_; }
  int usable_cores() const {
    return static_cast<int>(cores_.size()) - retired_cores_;
  }
  /// Number of channels forced back to nominal refresh by error
  /// pressure.
  int isolated_channels() const;
  bool channel_isolated(int channel) const {
    return channels_[static_cast<std::size_t>(channel)].isolated;
  }

  // -- accounting -----------------------------------------------------
  double hypervisor_footprint_mb() const;
  double hypervisor_share() const;
  const HvStats& stats() const { return stats_; }

  /// Aggregate electrical signature of the resident VMs (weighted by
  /// vCPU count); idle when no VM runs.
  const hw::WorkloadSignature& aggregate_signature() const {
    return totals_.signature;
  }

  /// One control-loop step of length `window` at simulated time `now`.
  TickReport tick(Seconds now, Seconds window);

 private:
  /// Error history of one core or channel: errors tallied since boot,
  /// and whether they retired the core or isolated the channel.
  struct ErrorHealth {
    double tally{0.0};
    bool isolated{false};
  };

  /// Refills totals_ from vms_; the only writer of totals_.
  void recount_vms();
  /// The only layout pass: pins channel c iff it is among the fewest
  /// leading channels that cover the reliable need (none without the
  /// reliable domain) or it is isolated. Called on each VM-set change.
  void reconfigure_domains();
  /// Average probability that an SDC into hypervisor memory is fatal,
  /// given the default KVM object profiles and the protection
  /// configuration.
  double hv_fatality_probability() const;
  /// One uncorrected error landed in hypervisor state: fatal with the
  /// Figure-4 criticality probability, else absorbed (a protection save
  /// when selective protection is on). Resolves the error.
  void hypervisor_corrupted(TickReport& report);
  /// One uncorrected error corrupted guest `victim`: it survives (hit),
  /// rolls back to a checkpoint (restored) or dies (killed). Resolves
  /// the error.
  void guest_corrupted(std::uint64_t victim, TickReport& report);

  hw::ServerNode& node_;
  const HvConfig config_;
  Rng rng_;
  daemons::HealthLog healthlog_;
  std::map<std::uint64_t, Vm> vms_;
  VmTotals totals_;
  /// Indexed by core / channel.
  std::vector<ErrorHealth> cores_;
  std::vector<ErrorHealth> channels_;
  int retired_cores_{0};
  ProtectionPlan protection_plan_;
  bool protection_enabled_;
  HvStats stats_;
};

}  // namespace uniserver::hv
