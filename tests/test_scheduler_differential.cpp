// Differential replay suite (ctest label: scheduler). 64 generated
// fuzz scenarios are each replayed through the indexed and reference
// placement engines for every SchedulerPolicy; the engines must agree
// on the full placement-decision sequence, the placement digest, the
// end-of-run CloudStats, the orchestrator's submitted and post-copy
// fallback books and the outcome digest. Every `cloud.*` counter
// outside the engine-dependent `cloud.sched.*` namespace is published
// from those books (docs/OBSERVABILITY.md). The nightly fuzz job reruns
// the same check at campaign scale (`uniserver_ctl fuzz
// --differential`).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "fuzz/harness.h"
#include "fuzz/scenario.h"

namespace uniserver {
namespace {

/// Vary fleet size and event count so the sweep crosses the
/// interesting regimes: tiny fleets (constant capacity pressure,
/// frequent rejections) up to fleets that absorb the whole storm.
fuzz::ScenarioConfig case_config(int index) {
  fuzz::ScenarioConfig config;
  config.nodes = 2 + index % 5;
  config.events = 24 + (index % 4) * 12;
  config.horizon = Seconds{1800.0};
  return config;
}

TEST(SchedulerDifferential, SixtyFourScenariosAllPoliciesIdentical) {
  constexpr int kCases = 64;
  Rng root(0xD1FF);
  auto streams = par::fork_streams(root, kCases);

  // Counter deltas are global state, so this loop must stay
  // sequential (it is: one case at a time, one policy at a time).
  int compared = 0;
  for (int i = 0; i < kCases; ++i) {
    fuzz::ScenarioConfig config = case_config(i);
    config.stack_seed = streams[i].next();
    const auto events = fuzz::generate_scenario(config, streams[i]);
    const auto outcome = fuzz::run_differential(config, events);
    ASSERT_EQ(outcome.policies.size(), osk::all_scheduler_policies().size());
    for (const auto& result : outcome.policies) {
      EXPECT_TRUE(result.identical())
          << "case " << i << ", policy " << osk::to_string(result.policy)
          << ": " << result.mismatch;
      ++compared;
    }
    EXPECT_EQ(outcome.identical,
              std::all_of(outcome.policies.begin(), outcome.policies.end(),
                          [](const auto& r) { return r.identical(); }));
  }
  EXPECT_EQ(compared,
            kCases * static_cast<int>(osk::all_scheduler_policies().size()));
}

TEST(SchedulerDifferential, ReplayIsDeterministic) {
  fuzz::ScenarioConfig config = case_config(0);
  config.stack_seed = 77;
  Rng rng(77);
  const auto events = fuzz::generate_scenario(config, rng);
  const auto first = fuzz::run_differential(config, events);
  const auto second = fuzz::run_differential(config, events);
  ASSERT_EQ(first.policies.size(), second.policies.size());
  for (std::size_t i = 0; i < first.policies.size(); ++i) {
    EXPECT_EQ(first.policies[i].indexed.digest,
              second.policies[i].indexed.digest);
    EXPECT_EQ(first.policies[i].indexed.placement_digest,
              second.policies[i].indexed.placement_digest);
    EXPECT_TRUE(first.policies[i].identical())
        << first.policies[i].mismatch;
  }
}

TEST(SchedulerDifferential, EnginesAgreeEvenWhenOraclesTrip) {
  // A scenario carrying the seeded vm-conservation violation stops at
  // its first failing checkpoint; both engines must stop at the same
  // step with the same books.
  fuzz::ScenarioConfig config = case_config(3);
  config.stack_seed = 13;
  config.seed_violation = true;
  Rng rng(13);
  const auto events = fuzz::generate_scenario(config, rng);
  const auto outcome = fuzz::run_differential(config, events);
  for (const auto& result : outcome.policies) {
    EXPECT_TRUE(result.identical())
        << osk::to_string(result.policy) << ": " << result.mismatch;
    EXPECT_TRUE(result.indexed.violated());
    EXPECT_EQ(result.indexed.steps, result.reference.steps);
  }
}

TEST(SchedulerDifferential, PlacementLogIsCapturedForBothEngines) {
  // The runner replays with record_placements on: a non-trivial
  // scenario must leave a decision log on both sides (the sequences
  // themselves are compared inside run_differential).
  fuzz::ScenarioConfig config = case_config(1);
  config.stack_seed = 5;
  Rng rng(5);
  const auto events = fuzz::generate_scenario(config, rng);
  const auto outcome = fuzz::run_differential(config, events);
  for (const auto& result : outcome.policies) {
    ASSERT_TRUE(result.identical()) << result.mismatch;
    EXPECT_FALSE(result.indexed.placements.empty());
    EXPECT_EQ(result.indexed.placements.size(),
              result.reference.placements.size());
  }
}

}  // namespace
}  // namespace uniserver
