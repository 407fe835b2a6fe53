#include "core/lifecycle.h"

#include <vector>

#include "hwmodel/eop.h"

namespace uniserver::core {

LifecycleStats LifecycleRunner::run() {
  LifecycleStats stats;
  const int cycles_before = node_.characterization_cycles();

  node_.characterize();
  node_.deploy();

  // Snapshot the resident service VMs so losses can be respawned.
  std::vector<hv::Vm> service_vms;
  for (const auto& [id, vm] : node_.hypervisor().vms()) {
    service_vms.push_back(vm);
  }

  sim::Simulator simulator;

  simulator.schedule_every(config_.tick, [this, &stats, &service_vms] {
    node_.server().advance_age(
        Seconds{config_.tick.value * config_.aging_acceleration});
    const hv::TickReport report = node_.step(config_.tick);
    ++stats.ticks;
    stats.masked_errors +=
        report.cache_ecc_masked + report.dram_ecc_masked;
    stats.vm_kills += report.vms_killed.size();
    stats.energy_kwh += report.energy.kwh();
    if (report.node_crash) {
      ++stats.node_crashes;
      // The machine reboots at the same EOP; in the adaptive
      // configuration a crash is the loudest possible trigger.
      if (config_.adaptive) {
        node_.characterize();
        node_.deploy();
      }
    }
    for (const hv::Vm& vm : service_vms) {
      if (!node_.hypervisor().vms().contains(vm.id)) {
        node_.hypervisor().create_vm(vm);
      }
    }
  });

  if (config_.adaptive && config_.periodic_recharacterization.value > 0.0) {
    simulator.schedule_every(config_.periodic_recharacterization,
                             [this] {
                               node_.characterize();
                               node_.deploy();
                             });
  }

  simulator.run_until(config_.horizon);

  stats.recharacterizations =
      node_.characterization_cycles() - cycles_before;
  const auto& chip_spec = node_.server().spec().chip;
  stats.final_undervolt_percent = hw::undervolt_percent(
      chip_spec.vdd_nominal, node_.server().eop().vdd);
  stats.aging_loss_percent =
      node_.server().chip().core(0).aging_loss() * 100.0;
  return stats;
}

}  // namespace uniserver::core
