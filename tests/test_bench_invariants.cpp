// End-to-end invariants behind the headline bench numbers — cheap
// versions of the experiment kernels asserted as regressions, so a
// model change that would silently bend a paper-facing result fails
// here first.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "common/stats.h"
#include "hwmodel/chip.h"
#include "hwmodel/chip_spec.h"
#include "hwmodel/dram_model.h"
#include "hwmodel/eop.h"
#include "hwmodel/pdn.h"
#include "hypervisor/fault_injection.h"
#include "hypervisor/footprint.h"
#include "stress/profiles.h"
#include "stress/shmoo.h"
#include "tco/tco.h"

namespace uniserver {
namespace {

using namespace uniserver::literals;

// T2: the calibrated bench parts stay inside the paper's neighbourhoods.
TEST(PaperInvariants, Table2CrashBands) {
  stress::ShmooCharacterizer characterizer({.runs = 1});
  Rng rng(42 ^ 0x7AB1E2ULL);

  hw::Chip i5(hw::i5_4200u_spec(), 42);
  double i5_min = 1e9;
  double i5_max = 0.0;
  for (const auto& w : stress::spec2006_profiles()) {
    const auto summary = characterizer.characterize_chip(
        i5, w, i5.spec().freq_nominal, rng);
    i5_min = std::min(i5_min, summary.system_crash_offset);
    i5_max = std::max(i5_max, summary.system_crash_offset);
  }
  EXPECT_NEAR(i5_min, 10.0, 1.5);   // paper: -10%
  EXPECT_NEAR(i5_max, 11.2, 1.5);   // paper: -11.2%

  hw::Chip i7(hw::i7_3970x_spec(), 42);
  double i7_min = 1e9;
  double i7_max = 0.0;
  for (const auto& w : stress::spec2006_profiles()) {
    const auto summary = characterizer.characterize_chip(
        i7, w, i7.spec().freq_nominal, rng);
    i7_min = std::min(i7_min, summary.system_crash_offset);
    i7_max = std::max(i7_max, summary.system_crash_offset);
  }
  EXPECT_NEAR(i7_min, 8.4, 1.5);    // paper: -8.4%
  EXPECT_NEAR(i7_max, 15.4, 1.5);   // paper: -15.4%
}

// D1: the DRAM anchors of §6.B.
TEST(PaperInvariants, DramRefreshAnchors) {
  hw::DimmSpec spec;
  spec.dimm_scale_sigma = 0.0;
  const hw::DimmModel dimm(spec, 1);
  const Celsius room{28.0};
  EXPECT_LT(dimm.expected_errors(1500_ms, room), 1.0);       // clean at 1.5 s
  const double ber5 = dimm.bit_error_probability(5_s, room);
  EXPECT_GT(ber5, 3e-10);                                    // ~1e-9 at 5 s
  EXPECT_LT(ber5, 3e-9);
  EXPECT_NEAR(hw::refresh_power_fraction_for_density(2.0), 0.09, 1e-6);
  EXPECT_NEAR(hw::refresh_power_fraction_for_density(32.0), 0.34, 1e-6);
}

// F4: fault-injection campaign shape.
TEST(PaperInvariants, Figure4Shape) {
  hv::ObjectInventory inventory(99);
  hv::FaultInjector injector(inventory);
  Rng loaded_rng(11);
  Rng unloaded_rng(12);
  const auto loaded = injector.run_campaign(
      {.runs_per_object = 5, .workload_loaded = true}, loaded_rng);
  const auto unloaded = injector.run_campaign(
      {.runs_per_object = 5, .workload_loaded = false}, unloaded_rng);
  // fs and kernel tower near 3000+.
  EXPECT_GT(loaded.fatal_by_category.at(hv::ObjectCategory::kFs), 2800u);
  EXPECT_GT(loaded.fatal_by_category.at(hv::ObjectCategory::kKernel), 2800u);
  EXPECT_LT(loaded.fatal_by_category.at(hv::ObjectCategory::kVdso), 100u);
  // Order of magnitude more failures when loaded.
  const double ratio = static_cast<double>(loaded.total_fatal) /
                       static_cast<double>(unloaded.total_fatal);
  EXPECT_GT(ratio, 8.0);
  EXPECT_LT(ratio, 25.0);
}

// T1/P1: the PDN's worst resonant droop matches Table 1's ~20% budget.
TEST(PaperInvariants, Table1DroopBudget) {
  const hw::PdnModel pdn{hw::PdnSpec{}};
  const double worst =
      pdn.worst_droop(0.0, 1.0, pdn.worst_excitation());
  EXPECT_NEAR(worst, 0.20, 0.04);
}

// T3: 36x EE on the cloud profile lands near the paper's 1.15x TCO.
TEST(PaperInvariants, Table3TcoAnchor) {
  const tco::EeImprovement ee;
  EXPECT_NEAR(ee.overall(), 36.0, 1e-9);
  const double gain = tco::TcoModel{}.tco_improvement(
      tco::cloud_datacenter_spec(), ee.overall(), false);
  EXPECT_NEAR(gain, 1.15, 0.08);
}

// The bench roster (bench/benchlist.cmake) is the single source of
// truth for which harnesses exist; this pins it to the bench_*.cpp
// files actually on disk, in both directions. Adding a bench source
// without registering it — or registering one without a source — fails
// here with the missing name.
TEST(BenchRoster, ListMatchesSourcesOnDisk) {
  std::set<std::string> listed;
  std::istringstream list(UNISERVER_BENCH_LIST);
  std::string name;
  while (std::getline(list, name, ',')) {
    if (!name.empty()) listed.insert(name);
  }
  ASSERT_FALSE(listed.empty());

  std::set<std::string> on_disk;
  for (const auto& entry :
       std::filesystem::directory_iterator(UNISERVER_BENCH_DIR)) {
    if (!entry.is_regular_file()) continue;
    const std::filesystem::path path = entry.path();
    if (path.extension() != ".cpp") continue;
    const std::string stem = path.stem().string();
    if (stem.rfind("bench_", 0) == 0) on_disk.insert(stem);
  }

  for (const std::string& bench : on_disk) {
    EXPECT_TRUE(listed.contains(bench))
        << bench << ".cpp exists but is not registered in "
        << "bench/benchlist.cmake — add it to UNISERVER_BENCHES";
  }
  for (const std::string& bench : listed) {
    EXPECT_TRUE(on_disk.contains(bench))
        << bench << " is registered in bench/benchlist.cmake but "
        << "bench/" << bench << ".cpp does not exist";
  }
}

// F3: the footprint claim at the experiment's operating point.
TEST(PaperInvariants, Figure3FootprintBound) {
  // 4 VMs x ~6 GB plateau (the LDBC experiment).
  EXPECT_LT(hv::footprint::hypervisor_share(4, 4.0 * 6144.0), 0.07);
}

}  // namespace
}  // namespace uniserver
