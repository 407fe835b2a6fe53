#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "hypervisor/fault_injection.h"
#include "hypervisor/objects.h"

namespace uniserver::hv {
namespace {

TEST(ObjectInventory, HasExactly16820Objects) {
  const ObjectInventory inventory(1);
  EXPECT_EQ(inventory.size(), 16820u);
}

TEST(ObjectInventory, CategoryCountsMatchProfiles) {
  const ObjectInventory inventory(1);
  std::map<ObjectCategory, int> counts;
  for (const auto& object : inventory.objects()) ++counts[object.category];
  for (const auto& profile : ObjectInventory::default_profiles()) {
    EXPECT_EQ(counts[profile.category], profile.object_count)
        << to_string(profile.category);
  }
}

TEST(ObjectInventory, CrucialShareTracksProfile) {
  const ObjectInventory inventory(2);
  for (const auto& profile : ObjectInventory::default_profiles()) {
    const double share =
        static_cast<double>(inventory.crucial_count(profile.category)) /
        profile.object_count;
    // Binomial sampling noise: 4 sigma.
    const double sigma = std::sqrt(profile.crucial_share *
                                   (1.0 - profile.crucial_share) /
                                   profile.object_count);
    EXPECT_NEAR(share, profile.crucial_share, 4.0 * sigma + 0.01)
        << to_string(profile.category);
  }
}

TEST(ObjectInventory, SizesArePositiveAndIdsUnique) {
  const ObjectInventory inventory(3);
  std::set<std::uint64_t> ids;
  for (const auto& object : inventory.objects()) {
    EXPECT_GE(object.size_bytes, 16u);
    ids.insert(object.id);
  }
  EXPECT_EQ(ids.size(), inventory.size());
  EXPECT_GT(inventory.total_size_mb(), 1.0);
  EXPECT_LT(inventory.total_size_mb(), 50.0);
}

TEST(ObjectInventory, DeterministicPerSeed) {
  const ObjectInventory a(7);
  const ObjectInventory b(7);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.objects()[i].crucial, b.objects()[i].crucial);
    ASSERT_EQ(a.objects()[i].size_bytes, b.objects()[i].size_bytes);
  }
}

TEST(ObjectInventory, CategoryNamesMatchFigure4Axis) {
  EXPECT_STREQ(to_string(ObjectCategory::kBlock), "block");
  EXPECT_STREQ(to_string(ObjectCategory::kFs), "fs");
  EXPECT_STREQ(to_string(ObjectCategory::kVdso), "vdso");
  EXPECT_EQ(kAllCategories.size(), 10u);
}

class CampaignFixture : public ::testing::Test {
 protected:
  CampaignFixture() : inventory_(99), injector_(inventory_) {}
  ObjectInventory inventory_;
  FaultInjector injector_;
};

TEST_F(CampaignFixture, InjectionCountMatchesDesign) {
  Rng rng(1);
  const CampaignResult result =
      injector_.run_campaign({.runs_per_object = 5, .workload_loaded = true},
                             rng);
  EXPECT_EQ(result.total_injections, 16820u * 5u);
  EXPECT_EQ(result.fatal_runs_per_object.size(), 16820u);
}

TEST_F(CampaignFixture, LoadedIsOrderOfMagnitudeWorse) {
  Rng rng_loaded(1);
  Rng rng_unloaded(2);
  const auto loaded = injector_.run_campaign(
      {.runs_per_object = 5, .workload_loaded = true}, rng_loaded);
  const auto unloaded = injector_.run_campaign(
      {.runs_per_object = 5, .workload_loaded = false}, rng_unloaded);
  ASSERT_GT(unloaded.total_fatal, 0u);
  const double ratio = static_cast<double>(loaded.total_fatal) /
                       static_cast<double>(unloaded.total_fatal);
  EXPECT_GT(ratio, 8.0);
  EXPECT_LT(ratio, 25.0);
}

TEST_F(CampaignFixture, FsAndKernelDominate) {
  Rng rng(1);
  const auto result = injector_.run_campaign(
      {.runs_per_object = 5, .workload_loaded = true}, rng);
  const auto fs = result.fatal_by_category.at(ObjectCategory::kFs);
  const auto kernel = result.fatal_by_category.at(ObjectCategory::kKernel);
  for (const auto& [category, fatal] : result.fatal_by_category) {
    if (category == ObjectCategory::kFs ||
        category == ObjectCategory::kKernel) {
      continue;
    }
    EXPECT_LT(fatal, fs) << to_string(category);
    EXPECT_LT(fatal, kernel) << to_string(category);
  }
}

TEST_F(CampaignFixture, OnlyCrucialObjectsEverDie) {
  Rng rng(3);
  const auto result = injector_.run_campaign(
      {.runs_per_object = 5, .workload_loaded = true}, rng);
  for (std::size_t i = 0; i < inventory_.size(); ++i) {
    if (result.fatal_runs_per_object[i] > 0) {
      EXPECT_TRUE(inventory_.objects()[i].crucial);
    }
  }
  EXPECT_LE(result.objects_marked_crucial(),
            static_cast<std::size_t>(result.total_fatal));
}

TEST_F(CampaignFixture, SensitivitySetIsLoadInvariant) {
  // The paper: "sensitive data structures appear to be the same,
  // irrespective of the load". Crucial-ness is a per-object property,
  // so every object fatal in the unloaded campaign is also crucial.
  Rng rng(4);
  const auto unloaded = injector_.run_campaign(
      {.runs_per_object = 5, .workload_loaded = false}, rng);
  for (std::size_t i = 0; i < inventory_.size(); ++i) {
    if (unloaded.fatal_runs_per_object[i] > 0) {
      EXPECT_TRUE(inventory_.objects()[i].crucial);
    }
  }
}

TEST_F(CampaignFixture, MoreRunsFindMoreCrucialObjects) {
  Rng rng_few(5);
  Rng rng_many(6);
  const auto few = injector_.run_campaign(
      {.runs_per_object = 1, .workload_loaded = true}, rng_few);
  const auto many = injector_.run_campaign(
      {.runs_per_object = 10, .workload_loaded = true}, rng_many);
  EXPECT_GT(many.objects_marked_crucial(), few.objects_marked_crucial());
}

}  // namespace
}  // namespace uniserver::hv
