// Example: years in the life of a UniServer node.
//
// Shows the closed monitoring loop the paper builds at the bottom of
// the stack: the silicon wears, correctable errors creep up as the
// once-safe EOP approaches the (shrinking) crash margin, the HealthLog
// threshold and the quarterly StressLog schedule trigger
// re-characterization, and the node backs its margins off — staying
// crash-free while still well below nominal voltage.
//
// Build & run:  ./build/examples/aging_lifecycle
#include <cstdio>

#include "common/table.h"
#include "core/lifecycle.h"
#include "hwmodel/chip_spec.h"
#include "hwmodel/eop.h"
#include "stress/profiles.h"

using namespace uniserver;

int main() {
  constexpr double kDay = 24.0 * 3600.0;
  constexpr double kQuarterWear = 1.5;  // simulated years per quarter-day

  core::UniServerConfig config;
  config.node_spec.chip = hw::arm_soc_spec();
  config.node_spec.chip.variation.aging_loss_at_year = 0.04;
  config.shmoo.runs = 1;
  config.guard_percent = 1.0;
  config.predictor_epochs = 10;

  core::UniServerNode node(config, 9);
  hv::Vm vm;
  vm.id = 1;
  vm.vcpus = 6;
  vm.memory_mb = 8192.0;
  vm.workload = stress::ldbc_profile();
  node.hypervisor().create_vm(vm);

  node.characterize();
  node.deploy();

  TextTable table("EOP trajectory while the part wears");
  table.set_header({"age [years]", "margin lost", "undervolt applied",
                    "masked errors", "crashes"});

  std::uint64_t masked_total = 0;
  std::uint64_t crashes = 0;
  // Each phase: a quarter-day of ticks at heavy aging acceleration,
  // followed by the quarterly StressLog cycle.
  for (int quarter = 0; quarter < 8; ++quarter) {
    std::uint64_t masked = 0;
    const double accel = kQuarterWear * 365.0 * 4.0;  // years per day / 4
    for (double t = 0.0; t < 0.25 * kDay; t += 1800.0) {
      node.server().advance_age(Seconds{1800.0 * accel});
      const hv::TickReport report = node.step(Seconds{1800.0});
      masked += report.cache_ecc_masked + report.dram_ecc_masked;
      if (report.node_crash) ++crashes;
      if (!node.hypervisor().vms().contains(1)) {
        node.hypervisor().create_vm(vm);
      }
    }
    masked_total += masked;

    const double age_years =
        node.server().chip().age().value / (365.0 * kDay);
    const double undervolt = hw::undervolt_percent(
        config.node_spec.chip.vdd_nominal, node.server().eop().vdd);
    table.add_row({TextTable::num(age_years, 1),
                   TextTable::pct(
                       node.server().chip().core(0).aging_loss() * 100.0, 1),
                   TextTable::pct(undervolt, 1), std::to_string(masked),
                   std::to_string(crashes)});

    // Quarterly StressLog cycle refreshes the margins for the aged part.
    node.characterize();
    node.deploy();
  }
  table.print();

  std::printf("\nover the deployment: %llu correctable errors masked, "
              "%llu node crashes, %d StressLog cycles; the node ends at "
              "-%.1f%% undervolt despite %.1f%% of margin lost to wear\n",
              static_cast<unsigned long long>(masked_total),
              static_cast<unsigned long long>(crashes),
              node.characterization_cycles(),
              hw::undervolt_percent(config.node_spec.chip.vdd_nominal,
                                    node.server().eop().vdd),
              node.server().chip().core(0).aging_loss() * 100.0);
  return 0;
}
