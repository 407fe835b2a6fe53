// Hypervisor memory-footprint model (paper §6.C, Figure 3).
//
// The experiment behind Figure 3: four VMs running the LDBC graph
// workload; the hypervisor footprint (KVM/QEMU structures, page tables,
// I/O buffers) stays below 7% of total utilized memory, which justifies
// hosting the whole hypervisor in the reliable memory domain at low
// cost. The model: a fixed base plus a per-VM overhead plus a small
// fraction of guest-resident memory (shadow page tables scale with it).
#pragma once

#include <cstddef>

namespace uniserver::hv::footprint {

/// Host kernel + KVM module + QEMU core (MB).
inline constexpr double kBaseMb = 200.0;
/// Per-VM device model and vCPU state (MB).
inline constexpr double kPerVmMb = 24.0;
/// Page tables etc. as a fraction of guest RAM.
inline constexpr double kPerGuestFraction = 0.012;
/// Host OS utilization outside the hypervisor (MB).
inline constexpr double kHostOsMb = 4096.0;

/// Hypervisor-owned megabytes for `vm_count` VMs holding
/// `total_vm_mb` of guest-resident memory.
inline double hypervisor_mb(std::size_t vm_count, double total_vm_mb) {
  return kBaseMb + kPerVmMb * static_cast<double>(vm_count) +
         kPerGuestFraction * total_vm_mb;
}

/// Total utilized memory on the node.
inline double total_utilized_mb(std::size_t vm_count, double total_vm_mb) {
  return kHostOsMb + total_vm_mb + hypervisor_mb(vm_count, total_vm_mb);
}

/// The Figure 3 red line: hypervisor share of total utilized memory.
inline double hypervisor_share(std::size_t vm_count, double total_vm_mb) {
  const double total = total_utilized_mb(vm_count, total_vm_mb);
  return total <= 0.0 ? 0.0 : hypervisor_mb(vm_count, total_vm_mb) / total;
}

}  // namespace uniserver::hv::footprint
