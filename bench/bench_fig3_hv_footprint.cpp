// Reproduces Figure 3: "Memory footprint of Hypervisor, VMs and
// Application".
//
// Four VMs each run the LDBC Social Network Benchmark (graph database)
// with staggered starts; the hypervisor footprint is tracked against
// total utilized memory over two hours. The paper's observation: the
// hypervisor footprint (red line) stays below 7% of utilized memory,
// so hosting the whole hypervisor in the reliable (nominal-refresh)
// memory domain is cheap.
#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "common/table.h"
#include "hwmodel/chip_spec.h"
#include "hwmodel/platform.h"
#include "hypervisor/hypervisor.h"
#include "trace/ldbc.h"

using namespace uniserver;
using namespace uniserver::literals;

int main() {
  hw::NodeSpec node_spec;
  node_spec.chip = hw::arm_soc_spec();
  hw::ServerNode server(node_spec, 5);
  hv::HvConfig hv_config;
  hv::Hypervisor hypervisor(server, hv_config, 5);

  std::vector<trace::LdbcWorkload> workloads;
  Rng rng(5);
  for (std::uint64_t vm_id = 1; vm_id <= 4; ++vm_id) {
    workloads.emplace_back(rng.next());
    hv::Vm vm;
    vm.id = vm_id;
    vm.vcpus = 2;
    vm.memory_mb = trace::LdbcWorkload::kBaseMemoryMb;
    vm.workload = workloads.back().signature();
    // Staggered starts: 3 minutes apart.
    vm.started_at = Seconds{180.0 * static_cast<double>(vm_id - 1)};
    hypervisor.create_vm(vm);
  }

  TextTable table("Figure 3: hypervisor footprint vs total utilized memory");
  table.set_header({"t [min]", "VM memory [MB]", "HV footprint [MB]",
                    "total utilized [MB]", "HV share"});
  // The guests' resident memory ramps with the LDBC workload; the
  // hypervisor's footprint model is evaluated at each minute's total.
  const std::size_t vm_count = workloads.size();
  double max_share = 0.0;
  double footprint_mb = 0.0;
  const Seconds horizon{7200.0};
  for (Seconds t{0.0}; t <= horizon; t += 60_s) {
    double vm_mb = 0.0;
    for (std::size_t i = 0; i < vm_count; ++i) {
      const auto& vm = hypervisor.vms().at(static_cast<std::uint64_t>(i + 1));
      const double since_start =
          std::max(0.0, t.value - vm.started_at.value);
      vm_mb += workloads[i].memory_mb(Seconds{since_start});
    }
    footprint_mb = hv::footprint::hypervisor_mb(vm_count, vm_mb);
    const double share = hv::footprint::hypervisor_share(vm_count, vm_mb);
    max_share = std::max(max_share, share);
    if (static_cast<long>(t.value) % 600 == 0) {
      table.add_row({TextTable::num(t.value / 60.0, 0),
                     TextTable::num(vm_mb, 0),
                     TextTable::num(footprint_mb, 0),
                     TextTable::num(
                         hv::footprint::total_utilized_mb(vm_count, vm_mb), 0),
                     TextTable::pct(share * 100.0)});
    }
  }
  table.print();
  std::printf("\nmax hypervisor share over the run: %.1f%% (paper: always "
              "< 7%%) -> whole hypervisor fits the reliable domain\n",
              max_share * 100.0);
  std::printf("reliable domain backing it: %d of %d channels "
              "(%.0f MB pinned at nominal refresh for a %.0f MB peak "
              "footprint)\n",
              server.reliable_channels(),
              server.memory().channels(),
              server.reliable_capacity_mb(), footprint_mb);
  return 0;
}
