// Ablation A8: the hypervisor's error-masking ladder under relaxed
// refresh (paper §4.A: the hypervisor must "transparently mask errors
// from upper software layers").
//
// Four rungs, cumulative: nothing -> reliable domain (hypervisor
// shielded) -> + VM checkpointing (guests roll back instead of dying)
// -> + channel isolation (error-fountain channels pinned back to
// nominal). A day at an aggressive 5 s refresh interval; the ladder
// converts catastrophic loss into bounded rollbacks, then removes the
// error source entirely — each rung paying a little power.
#include <cstdio>

#include "common/table.h"
#include "hwmodel/chip_spec.h"
#include "hwmodel/platform.h"
#include "hypervisor/hypervisor.h"
#include "stress/profiles.h"

using namespace uniserver;
using namespace uniserver::literals;

namespace {

struct Outcome {
  std::uint64_t vm_kills{0};
  std::uint64_t vm_restores{0};
  std::uint64_t hv_fatal{0};
  int isolated_channels{0};
  double energy_kwh{0.0};
};

Outcome run_day(bool domains, bool checkpoint, bool channel_isolation,
                std::uint64_t seed) {
  hw::NodeSpec spec;
  spec.chip = hw::arm_soc_spec();
  hw::ServerNode node(spec, seed);
  hv::HvConfig config;
  config.use_reliable_domain = domains;
  config.selective_protection = false;
  config.vm_checkpointing = checkpoint;
  config.guest_sdc_survival = 0.3;
  config.channel_isolation_threshold_per_hour =
      channel_isolation ? 20.0 : 1e12;
  hv::Hypervisor hypervisor(node, config, seed);

  hv::Vm vm;
  vm.id = 1;
  vm.vcpus = 6;
  vm.memory_mb = 16384.0;
  vm.workload = stress::ldbc_profile();
  hypervisor.create_vm(vm);

  hw::Eop eop = node.eop();
  eop.refresh = Seconds{5.0};
  hypervisor.apply_eop(eop);

  Outcome outcome;
  for (int i = 0; i < 24 * 60; ++i) {
    const hv::TickReport report = hypervisor.tick(Seconds{60.0 * i}, 60_s);
    outcome.vm_kills += report.vms_killed.size();
    outcome.vm_restores += report.vms_restored.size();
    if (report.hypervisor_fatal) ++outcome.hv_fatal;
    outcome.energy_kwh += report.energy.kwh();
    if (!hypervisor.vms().contains(1)) hypervisor.create_vm(vm);
  }
  outcome.isolated_channels = hypervisor.isolated_channels();
  return outcome;
}

}  // namespace

int main() {
  TextTable table(
      "Ablation A8: error-masking ladder at 5 s refresh (24 h, loaded)");
  table.set_header({"configuration", "HV-fatal", "VM kills", "VM restores",
                    "channels isolated", "energy [kWh]"});
  struct Rung {
    const char* name;
    bool domains;
    bool checkpoint;
    bool isolation;
  };
  const Rung rungs[] = {
      {"bare (nothing enabled)", false, false, false},
      {"+ reliable domain", true, false, false},
      {"+ VM checkpointing", true, true, false},
      {"+ channel isolation", true, true, true},
  };
  for (const Rung& rung : rungs) {
    const Outcome outcome =
        run_day(rung.domains, rung.checkpoint, rung.isolation, 515);
    table.add_row({rung.name, std::to_string(outcome.hv_fatal),
                   std::to_string(outcome.vm_kills),
                   std::to_string(outcome.vm_restores),
                   std::to_string(outcome.isolated_channels),
                   TextTable::num(outcome.energy_kwh, 3)});
  }
  table.print();
  std::printf(
      "\nexpected shape: the reliable domain removes hypervisor fatality; "
      "checkpointing converts guest kills into bounded rollbacks at ~1%% "
      "energy; channel isolation then starves the error source (restores "
      "stop) at the cost of the isolated channels' refresh power.\n");
  return 0;
}
