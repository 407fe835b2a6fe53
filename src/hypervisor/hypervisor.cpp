#include "hypervisor/hypervisor.h"

#include <algorithm>
#include <vector>

#include "telemetry/telemetry.h"

namespace uniserver::hv {

namespace {
// The hypervisor's only metric, set with the protection plan. The tick
// books its events in HvStats; Cloud::publish_books() publishes them.
telemetry::Gauge& protection_overhead() {
  static telemetry::Gauge& gauge = telemetry::gauge(
      "hv.protection_cpu_overhead", "fraction",
      "CPU overhead of the installed selective-protection plan");
  return gauge;
}
}  // namespace

const char* to_string(VmState state) {
  switch (state) {
    case VmState::kRunning:
      return "running";
    case VmState::kKilled:
      return "killed";
    case VmState::kMigratedOut:
      return "migrated-out";
  }
  return "?";
}

Hypervisor::Hypervisor(hw::ServerNode& node, const HvConfig& config,
                       std::uint64_t seed)
    : node_(node),
      config_(config),
      rng_(seed),
      cores_(static_cast<std::size_t>(node.chip().num_cores())),
      channels_(static_cast<std::size_t>(node.memory().channels())),
      protection_plan_{.protected_categories = {},
                       .coverage = kDefaultProtectionCoverage,
                       .protected_mb = 0.0,
                       .cpu_overhead = kDefaultProtectionCpuOverhead},
      protection_enabled_(config.selective_protection) {
  reconfigure_domains();
  if (protection_enabled_) {
    protection_overhead().set(protection_plan_.cpu_overhead);
  }
}

void Hypervisor::recount_vms() {
  // One pass in ascending id; each sum keeps that order, so the totals
  // are bit-identical to summing over vms_ at the point of use.
  VmTotals totals;
  double activity = 0.0, didt = 0.0, ipc = 0.0, mem = 0.0, cache = 0.0;
  for (const auto& [id, vm] : vms_) {
    totals.vcpus += vm.vcpus;
    totals.memory_mb += vm.memory_mb;
    if (vm.requirements.critical) {
      ++totals.critical_vms;
      totals.critical_mb += vm.memory_mb;
    }
    if (!(config_.use_reliable_domain && vm.requirements.critical)) {
      totals.relaxed_mb += vm.memory_mb;
    }
    const double weight = static_cast<double>(vm.vcpus);
    activity += weight * vm.workload.activity;
    didt += weight * vm.workload.didt_stress;
    ipc += weight * vm.workload.ipc;
    mem += weight * vm.workload.mem_intensity;
    cache += weight * vm.workload.cache_pressure;
  }
  if (!vms_.empty()) {
    const double weight_total = static_cast<double>(totals.vcpus);
    hw::WorkloadSignature& aggregate = totals.signature;
    aggregate.name = "vm-aggregate";
    aggregate.activity = activity / weight_total;
    // Droop stress adds up superlinearly with co-running noisy guests,
    // but saturates: use the weighted mean plus a small crowding term.
    aggregate.didt_stress = std::min(
        1.0, didt / weight_total * (1.0 + 0.05 * (weight_total - 1.0)));
    aggregate.ipc = ipc / weight_total;
    aggregate.mem_intensity = std::min(1.0, mem / weight_total);
    aggregate.cache_pressure = std::min(1.0, cache / weight_total);
  }
  totals_ = totals;
}

void Hypervisor::reconfigure_domains() {
  int leading = 0;
  if (config_.use_reliable_domain) {
    // Reserve room for the hypervisor plus headroom for critical VMs.
    const double need =
        footprint_.hypervisor_mb(
            vms_.size(), total_utilized_mb() - footprint_.host_os_mb) +
        totals_.critical_mb + 256.0;
    double covered = 0.0;
    while (leading < node_.memory().channels() && covered < need) {
      covered += node_.channel_capacity_mb(leading);
      ++leading;
    }
  }
  // Isolation decisions outlive any domain re-layout: a channel retired
  // for error pressure stays pinned at nominal refresh.
  for (int c = 0; c < node_.memory().channels(); ++c) {
    node_.pin_channel_reliable(
        c, c < leading || channels_[static_cast<std::size_t>(c)].isolated);
  }
}

bool Hypervisor::create_vm(const Vm& vm) {
  if (vms_.contains(vm.id)) return false;
  if (totals_.vcpus + vm.vcpus > usable_cores()) return false;
  vms_.emplace(vm.id, vm);
  recount_vms();
  reconfigure_domains();
  return true;
}

bool Hypervisor::destroy_vm(std::uint64_t id) {
  const bool erased = vms_.erase(id) > 0;
  if (erased) {
    recount_vms();
    reconfigure_domains();
  }
  return erased;
}

void Hypervisor::apply_margins(const daemons::SafeMargins& margins,
                               MegaHertz freq) {
  const auto& point = margins.point_for(freq);
  hw::Eop eop;
  eop.vdd = point.safe_vdd;
  eop.freq = point.freq;
  eop.refresh = margins.safe_refresh;
  apply_eop(eop);
}

void Hypervisor::apply_eop(const hw::Eop& eop) { node_.set_eop(eop); }

void Hypervisor::apply_protection_plan(const ProtectionPlan& plan) {
  protection_plan_ = plan;
  protection_enabled_ = !plan.protected_categories.empty();
  protection_overhead().set(protection_enabled_ ? plan.cpu_overhead : 0.0);
}

int Hypervisor::isolated_channels() const {
  return static_cast<int>(
      std::count_if(channels_.begin(), channels_.end(),
                    [](const ErrorHealth& h) { return h.isolated; }));
}

double Hypervisor::hypervisor_footprint_mb() const {
  return footprint_.hypervisor_mb(vms_.size(), totals_.memory_mb);
}

double Hypervisor::total_utilized_mb() const {
  return footprint_.total_utilized_mb(vms_.size(), totals_.memory_mb);
}

double Hypervisor::hypervisor_share() const {
  return footprint_.hypervisor_share(vms_.size(), totals_.memory_mb);
}

double Hypervisor::hv_fatality_probability() const {
  // Probability that an SDC landing in hypervisor memory takes the
  // hypervisor down: fraction of crucial bytes times the loaded
  // consumption rate, reduced by selective protection coverage.
  double crucial_bytes = 0.0;
  double total_bytes = 0.0;
  double weighted_consumption = 0.0;
  for (const auto& profile : ObjectInventory::default_profiles()) {
    const double category_bytes =
        profile.mean_size_bytes * profile.object_count;
    total_bytes += category_bytes;
    crucial_bytes += category_bytes * profile.crucial_share;
    weighted_consumption +=
        category_bytes * profile.crucial_share * profile.consumption_loaded;
  }
  double p = total_bytes <= 0.0 ? 0.0 : weighted_consumption / total_bytes;
  if (protection_enabled_) p *= (1.0 - protection_plan_.coverage);
  return p;
}

void Hypervisor::hypervisor_corrupted(TickReport& report) {
  if (rng_.bernoulli(hv_fatality_probability())) {
    report.hypervisor_fatal = true;
    ++stats_.hv_fatal_events;
  } else if (protection_enabled_) {
    ++stats_.protection_saves;
  }
  // Fatal, saved, or absorbed by a non-crucial object: disposed.
  ++stats_.uncorrected_resolved;
}

void Hypervisor::guest_corrupted(std::uint64_t victim, TickReport& report) {
  if (rng_.bernoulli(config_.guest_sdc_survival)) {
    report.vms_hit.push_back(victim);
  } else if (config_.vm_checkpointing) {
    // Fatal for the guest, but it rolls back to the last checkpoint
    // instead of dying (bounded work loss).
    report.vms_restored.push_back(victim);
    ++stats_.vm_restores;
  } else {
    report.vms_killed.push_back(victim);
  }
  ++stats_.uncorrected_resolved;
}

TickReport Hypervisor::tick(Seconds now, Seconds window) {
  TickReport report;
  ++stats_.ticks;
  stats_.uptime += window;

  // Copied: the SDC kills below recount the totals before the
  // monitoring vector reads this tick's signature.
  const hw::WorkloadSignature w = totals_.signature;
  const int active_cores = std::clamp(totals_.vcpus, 1, usable_cores());

  // --- run the machine for one window -------------------------------
  const hw::RunResult run = node_.run(w, window, active_cores, rng_);
  report.energy = run.energy;
  report.avg_power = run.avg_power;
  double overhead = 0.0;
  if (protection_enabled_) overhead += protection_plan_.cpu_overhead;
  if (config_.vm_checkpointing) overhead += kCheckpointOverhead;
  if (overhead > 0.0) {
    // Checking/checkpointing burns a slice of the node; charge it so
    // the resilience-vs-efficiency trade is visible.
    report.energy *= 1.0 + overhead;
    report.avg_power *= 1.0 + overhead;
  }
  stats_.energy += report.energy;

  // --- correctable cache errors: masked, logged, tallied -------------
  report.cache_ecc_masked = run.cache_ecc_corrected;
  stats_.cache_ecc_masked += run.cache_ecc_corrected;
  // Individual log records are capped per tick (a storm saturates the
  // counters; the HealthLog's rate threshold is long since blown and
  // per-event records carry no extra information).
  constexpr std::uint64_t kMaxLoggedPerTick = 1000;
  const std::uint64_t logged =
      std::min(run.cache_ecc_corrected, kMaxLoggedPerTick);
  for (std::uint64_t e = 0; e < logged; ++e) {
    const int core =
        static_cast<int>(rng_.uniform_u64(
            static_cast<std::uint64_t>(node_.chip().num_cores())));
    healthlog_.record_error(daemons::ErrorEvent{
        now, daemons::Component::kCache, daemons::Severity::kCorrectable,
        core});
    cores_[static_cast<std::size_t>(core)].tally +=
        static_cast<double>(run.cache_ecc_corrected) /
        static_cast<double>(logged);
  }

  // --- near-threshold CPU SDCs ----------------------------------------
  // A CPU SDC corrupts whatever ran on the core: hypervisor state with
  // probability hv_cpu_time_share (then the Figure-4 criticality model
  // decides fatality), a guest otherwise (survival / checkpoint / kill).
  report.cpu_sdcs = run.cpu_sdcs;
  stats_.cpu_sdcs += run.cpu_sdcs;
  for (std::uint64_t e = 0; e < run.cpu_sdcs; ++e) {
    ++stats_.uncorrected_seen;
    healthlog_.record_error(daemons::ErrorEvent{
        now, daemons::Component::kCore, daemons::Severity::kUncorrectable,
        0});
    if (rng_.bernoulli(config_.hv_cpu_time_share)) {
      hypervisor_corrupted(report);
    } else if (!vms_.empty()) {
      // Victim guest weighted by vCPU share.
      std::vector<double> weights;
      std::vector<std::uint64_t> ids;
      for (const auto& [id, vm] : vms_) {
        weights.push_back(static_cast<double>(vm.vcpus));
        ids.push_back(id);
      }
      guest_corrupted(ids[rng_.weighted_pick(weights)], report);
    } else {
      // Guest context with no guest running: the SDC corrupted idle
      // state nobody will consume.
      ++stats_.uncorrected_resolved;
    }
  }

  // --- core isolation on sustained error pressure --------------------
  // Only cores that logged an error are candidates, in ascending order.
  for (std::size_t core = 0; core < cores_.size(); ++core) {
    ErrorHealth& health = cores_[core];
    if (health.tally <= 0.0) continue;
    const double per_hour =
        health.tally / std::max(1e-9, stats_.uptime.value) * 3600.0;
    if (per_hour > config_.core_isolation_threshold_per_hour &&
        !health.isolated && usable_cores() > 1) {
      health.isolated = true;
      ++retired_cores_;
      telemetry::trace(now, "hv", "core_retired",
                       {{"core", std::to_string(core)}});
    }
  }

  // --- DRAM decay on relaxed channels ---------------------------------
  const Celsius mem_temp{node_.spec().ambient.value + 5.0};
  for (int c = 0; c < node_.memory().channels(); ++c) {
    if (node_.channel_reliable(c)) continue;
    const auto split =
        node_.memory().sample_error_split(c, window, mem_temp, rng_);
    report.dram_errors_relaxed += split.uncorrectable;
    report.dram_ecc_masked += split.corrected;
    ErrorHealth& health = channels_[static_cast<std::size_t>(c)];
    health.tally += static_cast<double>(split.uncorrectable);
    // Memory-side isolation: a channel pouring uncorrectable events is
    // pinned back to nominal refresh (the HealthLog-driven "isolating
    // problematic ... memory resources" of §4.A).
    const double per_hour =
        health.tally / std::max(1e-9, stats_.uptime.value) * 3600.0;
    if (per_hour > config_.channel_isolation_threshold_per_hour &&
        !health.isolated) {
      health.isolated = true;
      node_.pin_channel_reliable(c, true);
      telemetry::trace(now, "hv", "channel_isolated",
                       {{"channel", std::to_string(c)}});
    }
  }
  stats_.dram_errors_relaxed += report.dram_errors_relaxed;
  // ECC-corrected DRAM events are masked in hardware but still logged —
  // they are exactly the canary the HealthLog's threshold watches.
  stats_.dram_ecc_masked += report.dram_ecc_masked;
  for (std::uint64_t e = 0;
       e < std::min(report.dram_ecc_masked, kMaxLoggedPerTick); ++e) {
    healthlog_.record_error(daemons::ErrorEvent{
        now, daemons::Component::kDram, daemons::Severity::kCorrectable, 0});
  }

  // Attribute each error to hypervisor / VM / free memory by occupancy.
  const double relaxed_capacity = node_.relaxed_capacity_mb();
  double hv_relaxed_mb = hypervisor_footprint_mb();
  if (config_.use_reliable_domain) {
    // HV pages live in the reliable domain (up to its capacity).
    const double spill = std::max(
        0.0, hv_relaxed_mb - node_.reliable_capacity_mb());
    hv_relaxed_mb = spill;
  }
  const double vm_relaxed_mb = totals_.relaxed_mb;

  const std::uint64_t attributed =
      std::min(report.dram_errors_relaxed, 64 * kMaxLoggedPerTick);
  for (std::uint64_t e = 0; e < attributed; ++e) {
    ++stats_.uncorrected_seen;
    const double roll = rng_.uniform() * std::max(relaxed_capacity, 1.0);
    healthlog_.record_error(daemons::ErrorEvent{
        now, daemons::Component::kDram, daemons::Severity::kUncorrectable,
        0});
    if (roll < hv_relaxed_mb) {
      ++report.dram_errors_into_hv;
      hypervisor_corrupted(report);
    } else if (roll < hv_relaxed_mb + vm_relaxed_mb) {
      ++report.dram_errors_into_vms;
      // Pick the victim VM weighted by resident memory.
      double target = rng_.uniform() * std::max(vm_relaxed_mb, 1e-9);
      std::uint64_t victim = 0;
      for (const auto& [id, vm] : vms_) {
        if (config_.use_reliable_domain && vm.requirements.critical) continue;
        target -= vm.memory_mb;
        if (target <= 0.0) {
          victim = id;
          break;
        }
      }
      if (victim != 0) {
        guest_corrupted(victim, report);
      } else {
        // Every candidate byte was pinned into the reliable domain after
        // the share was computed: the error landed on protected memory
        // and is absorbed.
        ++stats_.uncorrected_resolved;
      }
    } else {
      // The error fell on unallocated memory — harmless.
      ++stats_.uncorrected_resolved;
    }
  }

  for (std::uint64_t victim : report.vms_killed) {
    destroy_vm(victim);
    ++stats_.vm_kills;
  }

  // --- node crash from undervolting past the margin -------------------
  if (run.crashed) {
    report.node_crash = true;
    ++stats_.node_crashes;
    healthlog_.record_error(daemons::ErrorEvent{
        now, daemons::Component::kCore, daemons::Severity::kCrash,
        run.crashing_core});
  }
  if (report.hypervisor_fatal) {
    ++stats_.fatal_ticks;
    healthlog_.record_error(daemons::ErrorEvent{
        now, daemons::Component::kDram, daemons::Severity::kCrash, 0});
  }

  // --- periodic monitoring vector -------------------------------------
  daemons::InfoVector vector;
  vector.timestamp = now;
  vector.eop = node_.eop();
  vector.sensors = node_.read_sensors(run, rng_);
  vector.ipc = w.ipc;
  vector.utilization =
      static_cast<double>(active_cores) / node_.chip().num_cores();
  vector.correctable_errors = report.cache_ecc_masked;
  vector.uncorrectable_errors = report.dram_errors_relaxed;
  healthlog_.record(vector);

  if (report.hypervisor_fatal) {
    telemetry::trace(now, "hv", "hypervisor_fatal", {});
  }
  if (report.node_crash) {
    telemetry::trace(now, "hv", "node_crash",
                     {{"crashing_core", std::to_string(run.crashing_core)}});
  }
  return report;
}

}  // namespace uniserver::hv
