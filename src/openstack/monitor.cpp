#include "openstack/monitor.h"

#include <algorithm>

namespace uniserver::osk {

void VmMonitor::record(std::uint64_t vm_id, const VmSample& sample) {
  const std::size_t window = config_.window;
  auto [it, inserted] = slot_of_.try_emplace(vm_id, recorded_.size());
  if (inserted) {
    if (free_slots_.empty()) {
      recorded_.push_back(0);
      samples_.resize(samples_.size() + window);
    } else {
      it->second = free_slots_.back();
      free_slots_.pop_back();
      recorded_[it->second] = 0;
    }
  }
  if (window == 0) return;
  std::uint64_t& recorded = recorded_[it->second];
  samples_[it->second * window + recorded % window] = sample;
  ++recorded;
}

void VmMonitor::forget(std::uint64_t vm_id) {
  const auto it = slot_of_.find(vm_id);
  if (it == slot_of_.end()) return;
  free_slots_.push_back(it->second);
  slot_of_.erase(it);
}

VmUsage VmMonitor::usage(std::uint64_t vm_id) const {
  VmUsage usage;
  const auto it = slot_of_.find(vm_id);
  if (it == slot_of_.end()) return usage;
  const std::size_t window = config_.window;
  const std::uint64_t recorded = recorded_[it->second];
  usage.samples = static_cast<std::size_t>(
      std::min<std::uint64_t>(recorded, window));
  if (usage.samples == 0) return usage;
  // Oldest to newest, the order the samples arrived in, so the sums
  // round the same way on every query.
  const VmSample* ring = samples_.data() + it->second * window;
  for (std::uint64_t k = recorded - usage.samples; k < recorded; ++k) {
    const VmSample& sample = ring[k % window];
    usage.mean_cpu += sample.cpu_utilization;
    usage.peak_cpu = std::max(usage.peak_cpu, sample.cpu_utilization);
    usage.mean_memory_mb += sample.memory_mb;
    usage.peak_memory_mb = std::max(usage.peak_memory_mb, sample.memory_mb);
    usage.total_errors += sample.error_events;
  }
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
  const double memory_term =
      std::min(1.0, u.mean_memory_mb / config_.memory_scale_mb);
  const double cpu_term = std::min(1.0, u.mean_cpu);
  const double error_term =
      std::min(1.0, static_cast<double>(u.total_errors) / config_.error_scale);
  return config_.weight_memory * memory_term + config_.weight_cpu * cpu_term +
         config_.weight_errors * error_term;
}

std::vector<std::uint64_t> VmMonitor::ranked_by_susceptibility() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(slot_of_.size());
  for (const auto& [id, slot] : slot_of_) ids.push_back(id);
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
    if (slot_of_.contains(id)) keyed.emplace_back(susceptibility(id), id);
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
