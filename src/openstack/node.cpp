#include "openstack/node.h"

#include <algorithm>

namespace uniserver::osk {

ComputeNode::ComputeNode(std::string name, std::size_t slot,
                         const hw::NodeSpec& spec,
                         const hv::HvConfig& hv_config, std::uint64_t seed)
    : name_(std::move(name)),
      slot_(slot),
      server_(std::make_unique<hw::ServerNode>(spec, seed)),
      hypervisor_(std::make_unique<hv::Hypervisor>(*server_, hv_config,
                                                   Rng(seed).fork(7).next())) {}

int ComputeNode::total_vcpus() const { return hypervisor_->usable_cores(); }

void ComputeNode::set_reliability(double reliability) {
  metrics_.reliability = std::clamp(reliability, 0.0, 1.0);
}

bool ComputeNode::fits(int vcpus, double memory_mb) const {
  if (!up_) return false;
  if (vcpus > free_vcpus()) return false;
  if (memory_mb > free_memory_mb()) return false;
  return true;
}

bool ComputeNode::place_vm(const hv::Vm& vm) {
  return fits(vm.vcpus, vm.memory_mb) && hypervisor_->create_vm(vm);
}

bool ComputeNode::reserve(int vcpus, double memory_mb) {
  if (!fits(vcpus, memory_mb)) return false;
  reserved_vcpus_ += vcpus;
  reserved_memory_mb_ += memory_mb;
  return true;
}

void ComputeNode::unreserve(int vcpus, double memory_mb) {
  reserved_vcpus_ = std::max(0, reserved_vcpus_ - vcpus);
  reserved_memory_mb_ = std::max(0.0, reserved_memory_mb_ - memory_mb);
}

ComputeNode::NodeTick ComputeNode::tick(Seconds now, Seconds window,
                                         NodeBooks& books) {
  NodeTick result;
  const bool was_up = up_;
  const int cores_were = total_vcpus();
  const double utilization_was = metrics_.utilization;
  if (!up_) {
    down_time_ += window;
    repair_remaining_ -= window;
    if (repair_remaining_.value <= 0.0) reboot();
  } else {
    result.report = hypervisor_->tick(now, window);
    const hv::TickReport& report = result.report;
    result.vms_lost = report.vms_killed;
    if (report.node_crash || report.hypervisor_fatal) {
      // Every resident VM is lost with the node, after the SDC kills.
      result.crashed = true;
      const std::vector<std::uint64_t> resident = force_crash();
      result.vms_lost.insert(result.vms_lost.end(), resident.begin(),
                             resident.end());
    }
    metrics_.energy_kwh += report.energy.kwh();
    // Added here, from the report in hand: a copy returned in NodeTick
    // and summed by the caller cost the cloud's tick loop more than the
    // fleet walk it replaces.
    books[0] += 1;
    books[1] += report.cache_ecc_masked;
    books[2] += report.dram_ecc_masked;
    books[3] += report.cpu_sdcs;
    books[4] += report.dram_errors_relaxed;
    books[5] += report.vms_killed.size();
    books[6] += report.vms_restored.size();
    books[7] += report.hypervisor_fatal ? 1 : 0;
    books[8] += report.protection_saves;
    books[9] += report.node_crash ? 1 : 0;
    books[10] += report.cores_retired;
    books[11] += report.channels_isolated;
    books[12] += 1;  // one monitoring vector per tick
  }

  // The hypervisor ticks exactly the windows the node is up.
  const double up_time = hypervisor_->stats().uptime.value;
  const double total_time = up_time + down_time_.value;
  metrics_.availability = total_time <= 0.0 ? 1.0 : up_time / total_time;
  metrics_.utilization =
      total_vcpus() <= 0
          ? 0.0
          : static_cast<double>(used_vcpus()) / total_vcpus();
  result.changed = result.crashed || !result.vms_lost.empty() ||
                   up_ != was_up || total_vcpus() != cores_were ||
                   metrics_.utilization != utilization_was;
  return result;
}

NodeBooks ComputeNode::books() const {
  const hv::HvStats& s = hypervisor_->stats();
  const daemons::HealthLog& log = hypervisor_->healthlog();
  return {s.ticks,
          s.cache_ecc_masked,
          s.dram_ecc_masked,
          s.cpu_sdcs,
          s.dram_errors_relaxed,
          s.vm_kills,
          s.vm_restores,
          s.fatal_ticks,
          s.protection_saves,
          s.node_crashes,
          static_cast<std::uint64_t>(hypervisor_->retired_cores()),
          static_cast<std::uint64_t>(hypervisor_->isolated_channels()),
          s.ticks,
          log.total_correctable(),
          log.total_uncorrectable(),
          log.recharacterize_triggers()};
}

bool ComputeNode::apply_sla_aware_eop(double backoff_percent) {
  if (!has_margins_ || margins_.points.empty()) return false;
  const bool critical_present = hypervisor_->vm_totals().critical_vms > 0;
  const auto& spec = server_->spec().chip;
  const auto& point = margins_.point_for(server_->eop().freq);
  const double offset =
      critical_present
          ? std::max(0.0, point.safe_offset_percent - backoff_percent)
          : point.safe_offset_percent;
  hw::Eop eop;
  eop.vdd = hw::apply_undervolt_percent(spec.vdd_nominal, offset);
  eop.freq = point.freq;
  eop.refresh = critical_present ? server_->spec().dimm.nominal_refresh
                                 : margins_.safe_refresh;
  if (eop == server_->eop()) return false;
  hypervisor_->apply_eop(eop);
  return true;
}

void ComputeNode::reboot() {
  up_ = true;
  repair_remaining_ = Seconds{0.0};
}

std::vector<std::uint64_t> ComputeNode::force_crash() {
  std::vector<std::uint64_t> lost;
  if (!up_) return lost;
  for (const auto& [id, vm] : hypervisor_->vms()) lost.push_back(id);
  for (std::uint64_t id : lost) hypervisor_->destroy_vm(id);
  up_ = false;
  repair_remaining_ = kRepairTime;
  // Inbound-migration reservations die with the node; the
  // orchestrator cancels the matching tickets on notification.
  reserved_vcpus_ = 0;
  reserved_memory_mb_ = 0.0;
  return lost;
}

}  // namespace uniserver::osk
