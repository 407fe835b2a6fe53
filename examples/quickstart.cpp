// Quickstart: the full UniServer per-node flow in ~60 lines.
//
//   1. model a server node (ARM SoC + 4 channels of DDR3),
//   2. pre-deployment characterization (StressLog shmoo campaign),
//   3. Predictor-advised Extended Operating Point,
//   4. host a VM and run the node, watching the HealthLog.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/uniserver_node.h"
#include "hwmodel/chip_spec.h"
#include "stress/profiles.h"

using namespace uniserver;
using namespace uniserver::literals;

int main() {
  // 1. Describe the hardware. Presets model the paper's parts; every
  //    stochastic draw hangs off the explicit seed.
  core::UniServerConfig config;
  config.node_spec.chip = hw::arm_soc_spec();
  config.guard_percent = 1.0;  // safety margin below the crash point

  core::UniServerNode node(config, /*seed=*/2024);

  // 2. Pre-deployment characterization: stress kernels + SPEC-like
  //    benchmarks sweep voltage down per core, per frequency.
  const daemons::SafeMargins& margins = node.characterize();
  std::printf("characterized %zu frequency points; safe refresh %.2f s\n",
              margins.points.size(), margins.safe_refresh.value);

  // 3. Deploy at the Predictor-recommended EOP.
  const auto advice = node.deploy();
  std::printf("deployed at %.3f V @ %.0f MHz (%s mode), refresh %.2f s\n",
              advice.eop.vdd.value, advice.eop.freq.value,
              to_string(advice.mode), advice.eop.refresh.value);

  const auto comparison =
      node.energy_comparison(stress::ldbc_profile(), /*active_cores=*/8);
  std::printf("node power %.1f W -> %.1f W (%.1f%% saved), fixed-work EE "
              "%.2fx\n",
              comparison.nominal_power.value, comparison.eop_power.value,
              comparison.power_saving * 100.0,
              comparison.energy_efficiency_factor);

  // 4. Host a VM and run for an hour of simulated time.
  hv::Vm vm;
  vm.id = 1;
  vm.vcpus = 4;
  vm.memory_mb = 6144.0;
  vm.workload = stress::ldbc_profile();
  node.hypervisor().create_vm(vm);

  std::uint64_t masked = 0;
  for (int minute = 0; minute < 60; ++minute) {
    const hv::TickReport report = node.step(60_s);
    masked += report.cache_ecc_masked;
    if (report.node_crash) {
      std::printf("node crashed at minute %d!\n", minute);
      return 1;
    }
  }
  const auto aggregate = node.hypervisor().healthlog().aggregate(0_s);
  std::printf("1 h at EOP: %llu correctable errors masked, mean power "
              "%.1f W, %zu monitoring vectors logged\n",
              static_cast<unsigned long long>(masked),
              aggregate.mean_power_w, aggregate.vectors);
  return 0;
}
