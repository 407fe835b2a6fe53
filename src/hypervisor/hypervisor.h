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
#include <optional>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "daemons/healthlog.h"
#include "daemons/predictor.h"
#include "daemons/stresslog.h"
#include "hwmodel/platform.h"
#include "hypervisor/domains.h"
#include "hypervisor/footprint.h"
#include "hypervisor/objects.h"
#include "hypervisor/protection.h"
#include "hypervisor/vm.h"

namespace uniserver::hv {

struct HvConfig {
  /// Acceptable *predicted* crash probability when asking the Predictor
  /// for an EOP. The logistic model is coarsely calibrated, so this is
  /// a ranking threshold rather than a true probability; 0.02 keeps a
  /// comfortable distance from the decision boundary (the guard band
  /// provides the hard safety margin).
  double risk_budget{0.02};
  /// Host the hypervisor (and critical VMs) at nominal refresh.
  bool use_reliable_domain{true};
  /// Checkpoint/checksum the crucial objects found by fault injection.
  bool selective_protection{true};
  /// Fraction of crucial objects covered by the protection mechanism.
  double protection_coverage{0.9};
  /// CPU overhead of the protection mechanism (fraction of one core).
  double protection_cpu_overhead{0.015};
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
  /// Runtime overhead of taking checkpoints (fraction of node power).
  double checkpoint_overhead{0.01};
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
  std::uint64_t dram_errors_into_vms{0};
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

/// Cumulative counters since boot.
struct HvStats {
  std::uint64_t ticks{0};
  std::uint64_t masked_errors{0};
  std::uint64_t vm_kills{0};
  std::uint64_t vm_restores{0};
  std::uint64_t hv_fatal_events{0};
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
};

class Hypervisor {
 public:
  Hypervisor(hw::ServerNode& node, const HvConfig& config,
             std::uint64_t seed);

  const HvConfig& config() const { return config_; }
  hw::ServerNode& node() { return node_; }
  daemons::HealthLog& healthlog() { return healthlog_; }
  MemoryDomainManager& domains() { return domains_; }

  // -- VM lifecycle ---------------------------------------------------
  bool create_vm(const Vm& vm);
  bool destroy_vm(std::uint64_t id);
  std::size_t vm_count() const { return vms_.size(); }
  const std::map<std::uint64_t, Vm>& vms() const { return vms_; }

  // -- EOP control ----------------------------------------------------
  /// Applies the safe margins from a StressLog cycle at a frequency,
  /// keeping the configured guard semantics (margins are already
  /// guard-banded by the StressLog).
  void apply_margins(const daemons::SafeMargins& margins, MegaHertz freq);
  /// Lets the Predictor choose among candidate EOPs under the budget.
  void apply_advice(const daemons::Predictor& predictor,
                    const std::vector<hw::Eop>& candidates);
  /// Applies an already-decided EOP and re-pins the reliable domain.
  void apply_eop(const hw::Eop& eop);

  /// Installs a characterization-derived selective-protection plan
  /// (coverage and CPU overhead replace the config defaults).
  void apply_protection_plan(const ProtectionPlan& plan);
  const ProtectionPlan& protection_plan() const { return protection_plan_; }
  const hw::Eop& eop() const { return node_.eop(); }

  // -- resilience -----------------------------------------------------
  /// Cores currently excluded from scheduling.
  const std::set<int>& retired_cores() const { return retired_cores_; }
  int usable_cores() const;
  /// Channels forced back to nominal refresh by error pressure.
  const std::set<int>& isolated_channels() const {
    return isolated_channels_;
  }

  // -- accounting -----------------------------------------------------
  double hypervisor_footprint_mb() const;
  double total_utilized_mb() const;
  double hypervisor_share() const;
  const FootprintModel& footprint_model() const { return footprint_; }
  const HvStats& stats() const { return stats_; }

  /// Aggregate electrical signature of the resident VMs (weighted by
  /// vCPU count); idle when no VM runs.
  hw::WorkloadSignature aggregate_signature() const;

  /// One control-loop step of length `window` at simulated time `now`.
  TickReport tick(Seconds now, Seconds window);

 private:
  /// Memory of the resident VMs, summed in ascending VM id.
  double resident_vm_mb() const;
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
  HvConfig config_;
  Rng rng_;
  daemons::HealthLog healthlog_;
  MemoryDomainManager domains_;
  FootprintModel footprint_;
  std::map<std::uint64_t, Vm> vms_;
  std::set<int> retired_cores_;
  std::set<int> isolated_channels_;
  std::map<int, double> core_error_tally_;
  std::map<int, double> channel_error_tally_;
  ProtectionPlan protection_plan_;
  HvStats stats_;
};

}  // namespace uniserver::hv
