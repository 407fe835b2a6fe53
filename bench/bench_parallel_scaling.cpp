// Parallel campaign engine scaling: the shmoo-surface grid and the
// hypervisor fault campaign at --jobs 1/2/4, verifying the engine's
// two promises at once — bit-identical outputs for every worker count
// (common/parallel.h fork-per-item seeding) and wall-clock speedup on
// multi-core hosts. Run with `--jobs N` to add a custom point.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/table.h"
#include "hwmodel/chip.h"
#include "hwmodel/chip_spec.h"
#include "hypervisor/fault_injection.h"
#include "stress/profiles.h"
#include "stress/shmoo.h"
#include "stress/shmoo_surface.h"

using namespace uniserver;

namespace {

struct CampaignOutputs {
  std::vector<stress::ShmooCell> surface_cells;
  std::vector<double> crash_means;
  std::vector<std::uint8_t> fatal_runs;
  double wall_ms{0.0};
};

// One fixed workload mix, heavy enough that a cell/object is real work.
CampaignOutputs run_all(unsigned jobs) {
  par::set_default_jobs(jobs);
  CampaignOutputs out;
  const auto start = std::chrono::steady_clock::now();

  // Dense V-F surface: 113 offsets x 12 frequency ratios.
  hw::Chip chip(hw::arm_soc_spec(), 42);
  stress::SurfaceConfig config;
  config.offset_step = 0.25;
  config.freq_ratios = {0.5,  0.55, 0.6,  0.65, 0.7,  0.75,
                        0.8,  0.85, 0.9,  0.95, 1.0,  1.05};
  Rng surface_rng(7);
  const auto surface = stress::characterize_surface(
      chip, *stress::spec_profile("h264ref"), config, surface_rng);
  out.surface_cells = surface.cells;

  // Full per-core x per-workload characterization campaign.
  stress::ShmooCharacterizer characterizer({.runs = 3});
  Rng campaign_rng(11);
  const auto campaign = characterizer.campaign(
      chip, stress::spec2006_profiles(), chip.spec().freq_nominal,
      campaign_rng);
  for (const auto& summary : campaign) {
    for (const auto& core : summary.per_core) {
      out.crash_means.push_back(core.crash_offset_mean);
    }
  }

  // Per-object SDC injection campaign (16,820 objects x 5 runs).
  hv::ObjectInventory inventory(99);
  hv::FaultInjector injector(inventory);
  Rng fault_rng(13);
  const auto fault = injector.run_campaign(
      {.runs_per_object = 5, .workload_loaded = true}, fault_rng);
  out.fatal_runs = fault.fatal_runs_per_object;

  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return out;
}

bool identical(const CampaignOutputs& a, const CampaignOutputs& b) {
  return a.surface_cells == b.surface_cells &&
         a.crash_means == b.crash_means && a.fatal_runs == b.fatal_runs;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<unsigned> jobs{1, 2, 4};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      const auto extra = par::parse_jobs(argv[++i]);
      if (!extra) return 2;
      jobs.push_back(*extra);
    }
  }

  std::printf("hardware threads: %u\n\n", par::hardware_jobs());
  TextTable table("Campaign engine scaling (surface + shmoo + faults)");
  table.set_header({"jobs", "wall [ms]", "speedup vs 1", "bit-identical"});

  run_all(1);  // warm-up: pay lazy model/profile init outside the timings

  CampaignOutputs baseline;
  bool all_identical = true;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    // Best of three repetitions: single-run wall times at this scale
    // are dominated by scheduler noise.
    CampaignOutputs run = run_all(jobs[i]);
    for (int rep = 0; rep < 2; ++rep) {
      CampaignOutputs again = run_all(jobs[i]);
      if (again.wall_ms < run.wall_ms) run = std::move(again);
    }
    const bool same = i == 0 || identical(baseline, run);
    all_identical = all_identical && same;
    table.add_row({std::to_string(jobs[i]), TextTable::num(run.wall_ms, 1),
                   i == 0 ? "1.00x"
                          : TextTable::num(baseline.wall_ms / run.wall_ms, 2) +
                                "x",
                   i == 0 ? "(baseline)" : same ? "yes" : "NO"});
    if (i == 0) baseline = run;
  }
  table.print();
  par::set_default_jobs(0);  // back to the hardware default

  if (!all_identical) {
    std::printf("\nFAIL: outputs diverged across worker counts\n");
    return 1;
  }
  std::printf("\nall worker counts produced bit-identical campaign "
              "outputs; speedup tracks physical cores\n");
  return 0;
}
