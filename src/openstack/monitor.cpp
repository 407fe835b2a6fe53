#include "openstack/monitor.h"

#include <algorithm>

namespace uniserver::osk {

void VmMonitor::admit(std::uint64_t vm_id, double cpu_utilization,
                      double memory_mb) {
  tracked_[vm_id] = Tracked{cpu_utilization, memory_mb, tick_, {}};
}

void VmMonitor::record_hit(std::uint64_t vm_id) {
  const auto it = tracked_.find(vm_id);
  if (it == tracked_.end()) return;
  // Hits that have left the window never count again.
  std::vector<std::uint64_t>& hits = it->second.hits;
  const auto live = std::find_if(hits.begin(), hits.end(), [&](auto at) {
    return at + kWindow > tick_;
  });
  hits.erase(hits.begin(), live);
  hits.push_back(tick_);
}

void VmMonitor::forget(std::uint64_t vm_id) { tracked_.erase(vm_id); }

VmUsage VmMonitor::usage(std::uint64_t vm_id) const {
  VmUsage usage;
  const auto it = tracked_.find(vm_id);
  if (it == tracked_.end()) return usage;
  const Tracked& vm = it->second;
  usage.samples = static_cast<std::size_t>(
      std::min<std::uint64_t>(tick_ - vm.admitted_at, kWindow));
  if (usage.samples == 0) return usage;
  // One sample per tick, all equal to the profile. Summed one by one
  // from 0.0, as a per-sample window would sum them, so the means (and
  // the susceptibility built on them) round the same way.
  for (std::size_t k = 0; k < usage.samples; ++k) {
    usage.mean_cpu += vm.cpu_utilization;
    usage.mean_memory_mb += vm.memory_mb;
  }
  usage.peak_cpu = std::max(0.0, vm.cpu_utilization);
  usage.peak_memory_mb = std::max(0.0, vm.memory_mb);
  // The window is the ticks (tick_ - samples, tick_].
  const std::uint64_t before = tick_ - usage.samples;
  usage.total_errors = static_cast<std::uint64_t>(std::count_if(
      vm.hits.begin(), vm.hits.end(), [&](auto at) { return at > before; }));
  const auto n = static_cast<double>(usage.samples);
  usage.mean_cpu /= n;
  usage.mean_memory_mb /= n;
  return usage;
}

double VmMonitor::susceptibility(std::uint64_t vm_id) const {
  const VmUsage u = usage(vm_id);
  if (u.samples == 0) return 0.0;
  // A fault lands in a VM roughly in proportion to its resident memory;
  // activity raises the odds the corruption is consumed; a history of
  // absorbed errors marks placement on fragile resources.
  const double memory_term = std::min(1.0, u.mean_memory_mb / kMemoryScaleMb);
  const double cpu_term = std::min(1.0, u.mean_cpu);
  const double error_term =
      std::min(1.0, static_cast<double>(u.total_errors) / kErrorScale);
  return kWeightMemory * memory_term + kWeightCpu * cpu_term +
         kWeightErrors * error_term;
}

std::vector<std::uint64_t> VmMonitor::ranked_by_susceptibility() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(tracked_.size());
  for (const auto& [id, vm] : tracked_) ids.push_back(id);
  std::sort(ids.begin(), ids.end(), [this](std::uint64_t a, std::uint64_t b) {
    const double sa = susceptibility(a);
    const double sb = susceptibility(b);
    if (sa != sb) return sa > sb;
    return a < b;
  });
  return ids;
}

std::vector<std::uint64_t> VmMonitor::ranked_by_susceptibility(
    const std::vector<std::uint64_t>& candidates) const {
  std::vector<std::pair<double, std::uint64_t>> keyed;
  keyed.reserve(candidates.size());
  for (std::uint64_t id : candidates) {
    if (tracked_.contains(id)) keyed.emplace_back(susceptibility(id), id);
  }
  // (susceptibility desc, id asc) is a total order over distinct ids, so
  // ranking a subset yields the full ranking filtered to that subset.
  std::sort(keyed.begin(), keyed.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  std::vector<std::uint64_t> ids;
  ids.reserve(keyed.size());
  for (const auto& [score, id] : keyed) ids.push_back(id);
  return ids;
}

}  // namespace uniserver::osk
