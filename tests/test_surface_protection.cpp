// Tests of the 2-D shmoo surface and the selective-protection policy.
#include <gtest/gtest.h>

#include <algorithm>

#include "hwmodel/chip_spec.h"
#include "hwmodel/eop.h"
#include "hypervisor/hypervisor.h"
#include "hypervisor/protection.h"
#include "stress/profiles.h"
#include "stress/shmoo_surface.h"

namespace uniserver {
namespace {

TEST(ShmooSurfaceTest, GridDimensionsMatchConfig) {
  hw::Chip chip(hw::arm_soc_spec(), 42);
  stress::SurfaceConfig config;
  config.offset_start = 2.0;
  config.offset_step = 2.0;
  config.offset_stop = 30.0;
  config.freq_ratios = {0.5, 0.75, 1.0};
  Rng rng(1);
  const auto surface = stress::characterize_surface(
      chip, *stress::spec_profile("bzip2"), config, rng);
  EXPECT_EQ(surface.offsets_percent.size(), 15u);
  EXPECT_EQ(surface.freq_ratios.size(), 3u);
  EXPECT_EQ(surface.cells.size(), 45u);
}

TEST(ShmooSurfaceTest, ShallowPassesDeepFails) {
  hw::Chip chip(hw::arm_soc_spec(), 42);
  stress::SurfaceConfig config;
  Rng rng(1);
  const auto surface = stress::characterize_surface(
      chip, *stress::spec_profile("h264ref"), config, rng);
  // First row (2% undervolt) passes everywhere; last row (30%) fails at
  // full frequency.
  for (std::size_t col = 0; col < surface.freq_ratios.size(); ++col) {
    EXPECT_NE(surface.at(0, col), stress::ShmooCell::kFail);
  }
  EXPECT_EQ(surface.at(surface.offsets_percent.size() - 1,
                       surface.freq_ratios.size() - 1),
            stress::ShmooCell::kFail);
}

TEST(ShmooSurfaceTest, FrontierDeepensAtLowerFrequency) {
  hw::Chip chip(hw::arm_soc_spec(), 42);
  stress::SurfaceConfig config;
  config.offset_step = 0.5;
  Rng rng(1);
  const auto surface = stress::characterize_surface(
      chip, *stress::spec_profile("bzip2"), config, rng);
  // freq_ratios ascend; the frontier (deepest passing offset) must be
  // non-increasing with frequency.
  double previous = 1e9;
  for (std::size_t col = 0; col < surface.freq_ratios.size(); ++col) {
    const double frontier = surface.frontier_offset(col);
    EXPECT_LE(frontier, previous + 1e-9);
    EXPECT_GT(frontier, 0.0);
    previous = frontier;
  }
}

TEST(ShmooSurfaceTest, FrontierMatchesModelCrashOffset) {
  hw::Chip chip(hw::arm_soc_spec(), 42);
  stress::SurfaceConfig config;
  config.offset_step = 0.25;
  config.freq_ratios = {1.0};
  Rng rng(1);
  const auto w = *stress::spec_profile("mcf");
  const auto surface =
      stress::characterize_surface(chip, w, config, rng);
  const double model_offset = hw::undervolt_percent(
      chip.spec().vdd_nominal,
      chip.system_crash_voltage(w, chip.spec().freq_nominal));
  EXPECT_NEAR(surface.frontier_offset(0), model_offset, 0.3);
}

TEST(ShmooSurfaceTest, AsciiHasRowPerOffset) {
  hw::Chip chip(hw::arm_soc_spec(), 42);
  stress::SurfaceConfig config;
  config.offset_stop = 6.0;
  config.offset_step = 2.0;
  Rng rng(1);
  const auto surface = stress::characterize_surface(
      chip, *stress::spec_profile("bzip2"), config, rng);
  const std::string art = surface.ascii();
  // Header + 3 offset rows.
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 4);
}

class ProtectionFixture : public ::testing::Test {
 protected:
  ProtectionFixture() : inventory_(99), injector_(inventory_) {
    Rng rng(1);
    campaign_ = injector_.run_campaign(
        {.runs_per_object = 5, .workload_loaded = true}, rng);
  }
  hv::ObjectInventory inventory_;
  hv::FaultInjector injector_;
  hv::CampaignResult campaign_;
};

TEST_F(ProtectionFixture, PlanReachesResidualTarget) {
  hv::ProtectionPolicy policy({.residual_target = 0.10});
  const hv::ProtectionPlan plan =
      policy.plan_from_campaign(inventory_, campaign_);
  EXPECT_GE(plan.coverage, 0.90);
  EXPECT_FALSE(plan.protected_categories.empty());
  EXPECT_GT(plan.protected_mb, 0.0);
  EXPECT_GT(plan.cpu_overhead, 0.0);
  EXPECT_LE(plan.cpu_overhead, 0.02);
}

TEST_F(ProtectionFixture, FsAndKernelAreAlwaysFirstPicks) {
  hv::ProtectionPolicy policy({.residual_target = 0.5});
  const hv::ProtectionPlan plan =
      policy.plan_from_campaign(inventory_, campaign_);
  ASSERT_GE(plan.protected_categories.size(), 2u);
  EXPECT_TRUE(plan.protects(hv::ObjectCategory::kFs));
  EXPECT_TRUE(plan.protects(hv::ObjectCategory::kKernel));
  EXPECT_FALSE(plan.protects(hv::ObjectCategory::kVdso));
}

TEST_F(ProtectionFixture, TighterTargetProtectsMore) {
  const auto loose = hv::ProtectionPolicy({.residual_target = 0.4})
                         .plan_from_campaign(inventory_, campaign_);
  const auto tight = hv::ProtectionPolicy({.residual_target = 0.02})
                         .plan_from_campaign(inventory_, campaign_);
  EXPECT_GT(tight.protected_categories.size(),
            loose.protected_categories.size());
  EXPECT_GT(tight.coverage, loose.coverage);
  EXPECT_GE(tight.cpu_overhead, loose.cpu_overhead);
}

TEST_F(ProtectionFixture, EmptyCampaignYieldsEmptyPlan) {
  hv::CampaignResult empty;
  const auto plan =
      hv::ProtectionPolicy{}.plan_from_campaign(inventory_, empty);
  EXPECT_TRUE(plan.protected_categories.empty());
  EXPECT_DOUBLE_EQ(plan.coverage, 0.0);
  EXPECT_DOUBLE_EQ(plan.cpu_overhead, 0.0);
}

TEST_F(ProtectionFixture, AllZeroFatalityCampaignYieldsEmptyPlan) {
  // A campaign that observed categories but no fatal run at all must
  // not divide by zero or protect anything.
  hv::CampaignResult quiet;
  for (const hv::ObjectCategory category : hv::kAllCategories) {
    quiet.fatal_by_category[category] = 0;
  }
  const auto plan =
      hv::ProtectionPolicy{}.plan_from_campaign(inventory_, quiet);
  EXPECT_TRUE(plan.protected_categories.empty());
  EXPECT_DOUBLE_EQ(plan.coverage, 0.0);
  EXPECT_DOUBLE_EQ(plan.protected_mb, 0.0);
  EXPECT_FALSE(plan.protects(hv::ObjectCategory::kKernel));
}

TEST_F(ProtectionFixture, ZeroFatalityCategoriesAreNeverProtected) {
  // Even an impossible residual target (0) must stop at the categories
  // that actually killed the hypervisor — protecting a category the
  // campaign never saw fail buys nothing.
  hv::CampaignResult skewed;
  skewed.fatal_by_category[hv::ObjectCategory::kKernel] = 40;
  skewed.fatal_by_category[hv::ObjectCategory::kFs] = 10;
  const auto plan = hv::ProtectionPolicy({.residual_target = 0.0})
                        .plan_from_campaign(inventory_, skewed);
  EXPECT_EQ(plan.protected_categories.size(), 2u);
  EXPECT_TRUE(plan.protects(hv::ObjectCategory::kKernel));
  EXPECT_TRUE(plan.protects(hv::ObjectCategory::kFs));
  EXPECT_DOUBLE_EQ(plan.coverage, 1.0);
}

TEST_F(ProtectionFixture, TrivialResidualTargetProtectsNothing) {
  // residual_target = 1.0 is satisfied before the first pick: the plan
  // must come back empty rather than grabbing the top category.
  const auto plan = hv::ProtectionPolicy({.residual_target = 1.0})
                        .plan_from_campaign(inventory_, campaign_);
  EXPECT_TRUE(plan.protected_categories.empty());
  EXPECT_DOUBLE_EQ(plan.coverage, 0.0);
  EXPECT_DOUBLE_EQ(plan.cpu_overhead, 0.0);
}

TEST_F(ProtectionFixture, CpuOverheadSaturatesAtCeiling) {
  const auto plan =
      hv::ProtectionPolicy({.residual_target = 0.02,
                            .cpu_per_mb = 100.0,
                            .cpu_ceiling = 0.02})
          .plan_from_campaign(inventory_, campaign_);
  EXPECT_GT(plan.protected_mb, 0.0);
  EXPECT_DOUBLE_EQ(plan.cpu_overhead, 0.02);
}

TEST_F(ProtectionFixture, HypervisorAdoptsThePlan) {
  hw::NodeSpec spec;
  spec.chip = hw::arm_soc_spec();
  hw::ServerNode node(spec, 3);
  hv::HvConfig config;
  config.selective_protection = false;
  hv::Hypervisor hypervisor(node, config, 3);

  hv::ProtectionPolicy policy({.residual_target = 0.10});
  const auto plan = policy.plan_from_campaign(inventory_, campaign_);
  hypervisor.apply_protection_plan(plan);
  EXPECT_TRUE(hypervisor.protection_enabled());
  EXPECT_NEAR(hypervisor.protection_plan().coverage, plan.coverage, 1e-12);
  EXPECT_NEAR(hypervisor.protection_plan().cpu_overhead, plan.cpu_overhead,
              1e-12);
  EXPECT_EQ(hypervisor.protection_plan().protected_categories.size(),
            plan.protected_categories.size());
}

TEST(ProtectionOverheadTest, ProtectionCostsVisibleEnergy) {
  hw::NodeSpec spec;
  spec.chip = hw::arm_soc_spec();
  hw::ServerNode node_a(spec, 4);
  hw::ServerNode node_b(spec, 4);
  hv::HvConfig without;
  without.selective_protection = false;
  hv::Hypervisor protected_hv(node_a, hv::HvConfig{}, 4);
  hv::Hypervisor bare_hv(node_b, without, 4);
  hv::ProtectionPlan plan;
  plan.protected_categories = {hv::ObjectCategory::kMm};
  plan.coverage = hv::kDefaultProtectionCoverage;
  plan.cpu_overhead = 0.02;
  protected_hv.apply_protection_plan(plan);

  hv::Vm vm;
  vm.id = 1;
  vm.vcpus = 4;
  vm.memory_mb = 4096.0;
  vm.workload = stress::ldbc_profile();
  protected_hv.create_vm(vm);
  bare_hv.create_vm(vm);

  const auto a = protected_hv.tick(Seconds{0.0}, Seconds{60.0});
  const auto b = bare_hv.tick(Seconds{0.0}, Seconds{60.0});
  EXPECT_NEAR(a.energy.value / b.energy.value, 1.02, 1e-6);
}

}  // namespace
}  // namespace uniserver
