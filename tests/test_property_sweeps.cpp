// Parameterized property sweeps across seeds: invariants that must
// hold for every manufactured part / DIMM, not just the bench seeds.
#include <gtest/gtest.h>

#include "hwmodel/chip.h"
#include "hwmodel/chip_spec.h"
#include "hwmodel/dram_model.h"
#include "hwmodel/eop.h"
#include "hwmodel/raidr.h"
#include "stress/profiles.h"
#include "stress/shmoo_surface.h"

namespace uniserver {
namespace {

using namespace uniserver::literals;

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, DimmBerMonotoneAndBounded) {
  const hw::DimmModel dimm(hw::DimmSpec{}, GetParam());
  const Celsius t{30.0};
  double previous = -1.0;
  for (double interval = 0.064; interval <= 20.0; interval *= 1.7) {
    const double ber = dimm.bit_error_probability(Seconds{interval}, t);
    EXPECT_GE(ber, previous);
    EXPECT_GE(ber, 0.0);
    EXPECT_LE(ber, 1.0);
    previous = ber;
  }
}

TEST_P(SeedSweep, DimmPowerSavingNeverExceedsRefreshShare) {
  const hw::DimmModel dimm(hw::DimmSpec{}, GetParam());
  for (double interval = 0.064; interval <= 20.0; interval *= 2.0) {
    EXPECT_LE(dimm.power_saving_fraction(Seconds{interval}),
              dimm.refresh_power_fraction_nominal() + 1e-9);
    EXPECT_GE(dimm.power_saving_fraction(Seconds{interval}), -1e-9);
  }
}

TEST_P(SeedSweep, RaidrBeatsOrMatchesUniformAtEqualErrors) {
  // Property: at any long interval, RAIDR's residual error level stays
  // at the fast bin's (nominal), while saving almost as much power as
  // uniform relaxation to that interval.
  const hw::DimmModel dimm(hw::DimmSpec{}, GetParam());
  const hw::RaidrBinning binning(dimm);
  const Celsius t{30.0};
  for (const Seconds interval : {1_s, 2_s, 5_s}) {
    const auto result = binning.evaluate(interval, t);
    EXPECT_LE(result.expected_errors,
              dimm.expected_errors(dimm.spec().nominal_refresh, t) + 1e-9);
    EXPECT_GE(result.dimm_power_saving,
              dimm.power_saving_fraction(interval) * 0.80);
  }
}

TEST_P(SeedSweep, ShmooSurfaceFrontierOrdering) {
  hw::Chip chip(hw::arm_soc_spec(), GetParam());
  stress::SurfaceConfig config;
  config.offset_step = 1.0;
  config.freq_ratios = {0.6, 0.8, 1.0};
  Rng rng(GetParam());
  const auto surface = stress::characterize_surface(
      chip, *stress::spec_profile("bzip2"), config, rng);
  // Frontier deepens (or holds) as frequency drops, for every part.
  EXPECT_GE(surface.frontier_offset(0), surface.frontier_offset(1) - 1e-9);
  EXPECT_GE(surface.frontier_offset(1), surface.frontier_offset(2) - 1e-9);
  // Cells never go FAIL -> PASS as voltage drops within a column.
  for (std::size_t col = 0; col < surface.freq_ratios.size(); ++col) {
    bool failed = false;
    for (std::size_t row = 0; row < surface.offsets_percent.size(); ++row) {
      const bool fail = surface.at(row, col) == stress::ShmooCell::kFail;
      if (failed) {
        EXPECT_TRUE(fail);
      }
      failed = failed || fail;
    }
  }
}

TEST_P(SeedSweep, AgingNeverIncreasesMargin) {
  hw::Chip chip(hw::arm_soc_spec(), GetParam());
  const auto w = *stress::spec_profile("mcf");
  const MegaHertz f = chip.spec().freq_nominal;
  double previous_crash = 0.0;
  constexpr double kYear = 365.0 * 24.0 * 3600.0;
  for (double years = 0.0; years <= 8.0; years += 1.0) {
    chip.set_age(Seconds{years * kYear});
    const double crash = chip.system_crash_voltage(w, f).value;
    EXPECT_GE(crash, previous_crash);
    previous_crash = crash;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(3, 17, 42, 256, 999, 4242,
                                           77777));

}  // namespace
}  // namespace uniserver
