// Async migration control plane (ctest label: migration).
//
// Direct orchestrator tests drive the state machine with handwritten
// callbacks and exact timeline arithmetic (pre-copy convergence, link
// queueing, post-copy fallback, every cancellation path). Cloud-level
// tests exercise the storm injectors end to end, and the fuzz-backed
// tests cover the PR-6 acceptance criteria: a 64-node evacuation-storm
// campaign with the migration oracles green and a bit-identical digest
// across --jobs.
#include "openstack/migration_orchestrator.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "fuzz/harness.h"
#include "fuzz/scenario.h"
#include "hwmodel/chip_spec.h"
#include "openstack/cloud.h"
#include "stress/profiles.h"

namespace uniserver::osk {
namespace {

using namespace uniserver::literals;

hw::NodeSpec node_spec() {
  hw::NodeSpec spec;
  spec.chip = hw::arm_soc_spec();
  return spec;
}

hv::Vm make_vm(std::uint64_t id, int vcpus = 2) {
  hv::Vm vm;
  vm.id = id;
  vm.vcpus = vcpus;
  vm.memory_mb = 2048.0;
  vm.workload = stress::web_service_profile();
  return vm;
}

/// Minimal host for the orchestrator: owns the nodes and implements the
/// callbacks the way the Cloud does (commit moves the VM's books,
/// lose_postcopy kills it on the destination), while recording every
/// callback so tests can assert the exact sequence.
struct DirectHarness {
  std::vector<std::unique_ptr<ComputeNode>> nodes;
  int commits{0};
  int postcopy_losses{0};
  double traffic_mb{0.0};
  bool fail_commits{false};
  std::vector<std::pair<std::uint64_t, MigrationOrchestrator::Outcome>>
      finished;
  MigrationTicket last_finished{};
  std::unique_ptr<MigrationOrchestrator> orch;

  DirectHarness(int node_count, const MigrationModel& model) {
    for (int i = 0; i < node_count; ++i) {
      nodes.push_back(std::make_unique<ComputeNode>(
          "n" + std::to_string(i), static_cast<std::size_t>(i), node_spec(),
          hv::HvConfig{}, static_cast<std::uint64_t>(i) + 1));
    }
    MigrationOrchestrator::Callbacks cb;
    cb.commit = [this](const MigrationTicket& t) {
      if (fail_commits) return false;
      const auto& vms = t.source->hypervisor().vms();
      const auto it = vms.find(t.vm_id);
      if (it == vms.end()) return false;
      const hv::Vm vm = it->second;
      t.source->remove_vm(t.vm_id);
      if (!t.dest->place_vm(vm)) return false;
      ++commits;
      return true;
    };
    cb.lose_postcopy = [this](const MigrationTicket& t) {
      t.dest->remove_vm(t.vm_id);
      ++postcopy_losses;
    };
    cb.copy_traffic = [this](double mb) { traffic_mb += mb; };
    cb.finished = [this](const MigrationTicket& t,
                         MigrationOrchestrator::Outcome outcome) {
      finished.emplace_back(t.vm_id, outcome);
      last_finished = t;
    };
    cb.node_changed = [](ComputeNode*) {};
    orch = std::make_unique<MigrationOrchestrator>(model, std::move(cb));
  }

  ComputeNode* node(int i) { return nodes[static_cast<std::size_t>(i)].get(); }
};

TEST(MigrationOrchestrator, PreCopyConvergesAndCutsOver) {
  // Defaults: 1000 MB/s stream, 15 % dirty rate, 0.5 s downtime target.
  // A 2048 MB VM copies its memory in 2.048 s; the 307.2 MB dirty set
  // projects a 0.3072 s pause — under target, so round 1 converges.
  DirectHarness h(2, MigrationModel{});
  ASSERT_TRUE(h.node(0)->place_vm(make_vm(1)));

  ASSERT_TRUE(h.orch->submit(1, h.node(0), h.node(1), 2, 2048.0,
                             MigrationPriority::kEopRetreat, 0_s, 0, 1));
  // Capacity is reserved on the destination from submit onwards.
  EXPECT_EQ(h.node(1)->free_vcpus(), h.node(1)->total_vcpus() - 2);
  EXPECT_TRUE(h.orch->in_flight(1));
  EXPECT_EQ(h.orch->active_count(), 1u);
  EXPECT_EQ(h.orch->tickets().at(1).phase, MigrationPhase::kPreCopy);
  EXPECT_GT(h.orch->link_utilization(), 0.0);

  h.orch->advance(Seconds{2.0});  // round still copying
  EXPECT_EQ(h.orch->tickets().at(1).phase, MigrationPhase::kPreCopy);
  h.orch->advance(Seconds{2.1});  // round done, converged
  ASSERT_TRUE(h.orch->in_flight(1));
  EXPECT_EQ(h.orch->tickets().at(1).phase, MigrationPhase::kStopCopy);

  h.orch->advance(Seconds{2.4});  // pause over at 2.048 + 0.3072
  EXPECT_FALSE(h.orch->in_flight(1));
  ASSERT_EQ(h.finished.size(), 1u);
  EXPECT_EQ(h.finished[0].second,
            MigrationOrchestrator::Outcome::kCompleted);
  EXPECT_EQ(h.commits, 1);
  EXPECT_FALSE(h.last_finished.post_copy);
  EXPECT_NEAR(h.last_finished.downtime.value, 0.3072, 1e-9);
  EXPECT_NEAR(h.last_finished.transferred_mb, 2048.0 + 307.2, 1e-9);
  EXPECT_NEAR(h.traffic_mb, 2048.0 + 307.2, 1e-9);
  EXPECT_NEAR(h.last_finished.finished_at.value, 2.3552, 1e-9);

  // VM lives on the destination, reservation returned (the 2 vCPUs the
  // VM now *uses* are the only capacity held).
  EXPECT_EQ(h.node(0)->hypervisor().vm_count(), 0u);
  EXPECT_EQ(h.node(1)->hypervisor().vm_count(), 1u);
  EXPECT_EQ(h.node(1)->free_vcpus(), h.node(1)->total_vcpus() - 2);
  EXPECT_DOUBLE_EQ(h.orch->link_utilization(), 0.0);

  const MigrationStats& s = h.orch->stats();
  EXPECT_EQ(s.submitted, 1u);
  EXPECT_EQ(s.started, 1u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.cancelled, 0u);
  EXPECT_EQ(s.postcopy_fallbacks, 0u);
}

TEST(MigrationOrchestrator, LinkBudgetSerializesAndPriorityJumpsQueue) {
  // The 4000/1000 MB/s budget gives each rack link four stream slots.
  // Six tickets on the 0 -> 1 rack pair: four fly, and two wait in
  // (priority, FIFO) order. Each VM has its own source and destination
  // node, so only the link budget holds them back.
  constexpr int kSlots = MigrationOrchestrator::kSlotsPerLink;
  static_assert(kSlots == 4);
  constexpr int kTickets = kSlots + 2;
  DirectHarness h(2 * kTickets, MigrationModel{});
  const auto submit = [&h](std::uint64_t id, double memory_mb,
                           MigrationPriority priority) {
    const int k = static_cast<int>(id) - 1;
    ASSERT_TRUE(h.node(k)->place_vm(make_vm(id)));
    ASSERT_TRUE(h.orch->submit(id, h.node(k), h.node(kTickets + k), 2,
                               memory_mb, priority, 0_s, 0, 1));
  };
  // VM 1 is half the size of VMs 2-4, so it frees the first slot, at
  // 1.024 + 0.1536 = 1.1776 s; the others finish at 2.3552 s.
  submit(1, 1024.0, MigrationPriority::kEopRetreat);
  for (std::uint64_t id = 2; id <= kSlots; ++id) {
    submit(id, 2048.0, MigrationPriority::kEopRetreat);
  }
  submit(5, 2048.0, MigrationPriority::kEopRetreat);
  submit(6, 2048.0, MigrationPriority::kCrashEvacuation);
  EXPECT_EQ(h.orch->active_count(), static_cast<std::size_t>(kSlots));
  EXPECT_EQ(h.orch->queued_count(), 2u);
  EXPECT_DOUBLE_EQ(h.orch->link_utilization(), 1.0);
  EXPECT_EQ(h.orch->tickets().at(5).phase, MigrationPhase::kQueued);

  // The slot VM 1 frees goes to the crash-evacuation ticket (VM 6), not
  // the earlier-submitted VM 5.
  h.orch->advance(Seconds{1.5});
  ASSERT_FALSE(h.orch->in_flight(1));
  ASSERT_TRUE(h.orch->in_flight(6));
  ASSERT_TRUE(h.orch->in_flight(5));
  EXPECT_EQ(h.orch->tickets().at(6).phase, MigrationPhase::kPreCopy);
  EXPECT_EQ(h.orch->tickets().at(5).phase, MigrationPhase::kQueued);

  // Everything drains in turn; admissions chain inside advance().
  h.orch->advance(Seconds{10.0});
  EXPECT_EQ(h.orch->stats().completed, static_cast<std::uint64_t>(kTickets));
  EXPECT_TRUE(h.orch->tickets().empty());
  ASSERT_EQ(h.finished.size(), static_cast<std::size_t>(kTickets));
  const std::vector<std::uint64_t> want{1, 2, 3, 4, 6, 5};
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(h.finished[i].first, want[i]) << "finish " << i;
  }
  EXPECT_NEAR(h.last_finished.finished_at.value, 2.3552 + 2.3552, 1e-9);
  for (int k = 0; k < kTickets; ++k) {
    EXPECT_EQ(h.node(k)->hypervisor().vm_count(), 0u);
    EXPECT_EQ(h.node(kTickets + k)->hypervisor().vm_count(), 1u);
  }
}

TEST(MigrationOrchestrator, NegativeDirtyRateClampsToZero) {
  // dirty_rate < 0 clamps to 0: nothing re-dirties, so round 1 (the
  // full 2048 MB copy, 2.048 s) converges at once and the stop-and-copy
  // moves nothing and pauses for zero time.
  MigrationModel model;
  model.dirty_rate = -0.5;
  DirectHarness h(2, model);
  ASSERT_TRUE(h.node(0)->place_vm(make_vm(1)));
  ASSERT_TRUE(h.orch->submit(1, h.node(0), h.node(1), 2, 2048.0,
                             MigrationPriority::kEopRetreat, 0_s, 0, 1));

  h.orch->advance(Seconds{2.0});
  EXPECT_EQ(h.orch->tickets().at(1).phase, MigrationPhase::kPreCopy);
  h.orch->advance(Seconds{2.048});  // copy done; zero-length pause too
  EXPECT_FALSE(h.orch->in_flight(1));
  ASSERT_EQ(h.finished.size(), 1u);
  EXPECT_EQ(h.finished[0].second,
            MigrationOrchestrator::Outcome::kCompleted);
  EXPECT_FALSE(h.last_finished.post_copy);
  EXPECT_EQ(h.last_finished.round, 1);
  EXPECT_NEAR(h.last_finished.transferred_mb, 2048.0, 1e-9);
  EXPECT_NEAR(h.traffic_mb, 2048.0, 1e-9);
  EXPECT_DOUBLE_EQ(h.last_finished.downtime.value, 0.0);
  EXPECT_NEAR(h.last_finished.finished_at.value,
              2048.0 / MigrationModel::kBandwidthMbPerS, 1e-12);
  EXPECT_EQ(h.orch->stats().postcopy_fallbacks, 0u);
}

TEST(MigrationOrchestrator, PostCopyFallbackWhenPreCopyCannotConverge) {
  // dirty_rate 1.5: every round dirties more than it copied, so after
  // kPrecopyRounds (3) rounds the orchestrator switches ownership
  // immediately and drains the remainder post-copy.
  static_assert(MigrationModel::kPrecopyRounds == 3);
  MigrationModel model;
  model.dirty_rate = 1.5;
  DirectHarness h(2, model);
  ASSERT_TRUE(h.node(0)->place_vm(make_vm(1)));
  ASSERT_TRUE(h.orch->submit(1, h.node(0), h.node(1), 2, 2048.0,
                             MigrationPriority::kEopRetreat, 0_s, 0, 1));

  // Round 1 at 2.048 (dirty 3072), round 2 at 5.12 (dirty 4608), round
  // 3 at 9.728 (dirty 6912): rounds exhausted -> commit now, drain
  // until 9.728 + 0.05 + 6.912 = 16.69.
  h.orch->advance(Seconds{9.0});
  ASSERT_TRUE(h.orch->in_flight(1));
  EXPECT_EQ(h.orch->tickets().at(1).phase, MigrationPhase::kPreCopy);
  EXPECT_EQ(h.orch->tickets().at(1).round, 2);
  EXPECT_EQ(h.commits, 0);
  h.orch->advance(Seconds{10.0});
  ASSERT_TRUE(h.orch->in_flight(1));
  EXPECT_EQ(h.orch->tickets().at(1).phase, MigrationPhase::kPostCopy);
  EXPECT_EQ(h.orch->tickets().at(1).round, MigrationModel::kPrecopyRounds);
  EXPECT_EQ(h.commits, 1);  // ownership already switched
  EXPECT_EQ(h.node(1)->hypervisor().vm_count(), 1u);
  EXPECT_EQ(h.orch->stats().postcopy_fallbacks, 1u);

  h.orch->advance(Seconds{17.0});
  EXPECT_FALSE(h.orch->in_flight(1));
  EXPECT_EQ(h.orch->stats().completed, 1u);
  EXPECT_TRUE(h.last_finished.post_copy);
  EXPECT_NEAR(h.last_finished.downtime.value,
              MigrationModel::kPostcopySwitch.value, 1e-12);
  EXPECT_NEAR(h.last_finished.transferred_mb,
              2048.0 + 3072.0 + 4608.0 + 6912.0, 1e-9);
  EXPECT_NEAR(h.last_finished.finished_at.value, 16.69, 1e-9);
}

TEST(MigrationOrchestrator, SourceCrashMidRoundCancelsCleanly) {
  DirectHarness h(2, MigrationModel{});
  ASSERT_TRUE(h.node(0)->place_vm(make_vm(1)));
  ASSERT_TRUE(h.orch->submit(1, h.node(0), h.node(1), 2, 2048.0,
                             MigrationPriority::kCrashEvacuation, 0_s, 0,
                             1));
  h.orch->advance(Seconds{1.0});  // mid round 1 (finishes at 2.048)

  h.node(0)->force_crash();
  h.orch->on_node_down(h.node(0), Seconds{1.0});

  EXPECT_TRUE(h.orch->tickets().empty());
  ASSERT_EQ(h.finished.size(), 1u);
  EXPECT_EQ(h.finished[0].second,
            MigrationOrchestrator::Outcome::kCancelled);
  EXPECT_EQ(h.commits, 0);
  EXPECT_EQ(h.postcopy_losses, 0);  // pre-copy: crash took the VM anyway
  // Destination reservation released; its link slot freed.
  EXPECT_EQ(h.node(1)->free_vcpus(), h.node(1)->total_vcpus());
  EXPECT_DOUBLE_EQ(h.orch->link_utilization(), 0.0);

  // The round-completion message is now stale: advancing past its due
  // time must not resurrect the ticket (no ticket holds its seq).
  h.orch->advance(Seconds{5.0});
  EXPECT_EQ(h.orch->stats().completed, 0u);
  EXPECT_EQ(h.orch->stats().cancelled, 1u);
  EXPECT_DOUBLE_EQ(h.traffic_mb, 0.0);
}

TEST(MigrationOrchestrator, DestCrashBeforeCutoverKeepsVmOnSource) {
  DirectHarness h(2, MigrationModel{});
  ASSERT_TRUE(h.node(0)->place_vm(make_vm(1)));
  ASSERT_TRUE(h.orch->submit(1, h.node(0), h.node(1), 2, 2048.0,
                             MigrationPriority::kEopRetreat, 0_s, 0, 1));
  h.orch->advance(Seconds{1.0});

  // The crash zeroes the node's reservation books itself; on_node_down
  // must not unreserve a second time on top of that.
  h.node(1)->force_crash();
  h.orch->on_node_down(h.node(1), Seconds{1.0});

  EXPECT_TRUE(h.orch->tickets().empty());
  EXPECT_EQ(h.orch->stats().cancelled, 1u);
  EXPECT_EQ(h.commits, 0);
  // The VM never left the source.
  EXPECT_EQ(h.node(0)->hypervisor().vm_count(), 1u);

  // After repair the destination has its full capacity back: a stale
  // double-unreserve would have corrupted the books.
  double t = 60.0;
  osk::NodeBooks books{};
  while (!h.node(1)->up() && t < 3600.0) {
    h.node(1)->tick(Seconds{t}, 60_s, books);
    t += 60.0;
  }
  ASSERT_TRUE(h.node(1)->up());
  EXPECT_EQ(h.node(1)->free_vcpus(), h.node(1)->total_vcpus());
  for (std::uint64_t id = 10; id < 14; ++id) {
    EXPECT_TRUE(h.node(1)->place_vm(make_vm(id)));
  }
}

TEST(MigrationOrchestrator, PostCopySourceCrashLosesTheVm) {
  MigrationModel model;
  model.dirty_rate = 1.5;
  DirectHarness h(2, model);
  ASSERT_TRUE(h.node(0)->place_vm(make_vm(1)));
  ASSERT_TRUE(h.orch->submit(1, h.node(0), h.node(1), 2, 2048.0,
                             MigrationPriority::kEopRetreat, 0_s, 0, 1));
  // Post-copy starts after round 3 at 9.728 s; the drain runs to
  // 16.69 s.
  h.orch->advance(Seconds{10.0});  // in post-copy drain, VM on dest
  ASSERT_EQ(h.orch->tickets().at(1).phase, MigrationPhase::kPostCopy);

  // The source still serves demand-pulled pages: losing it loses the VM
  // even though the VM already runs on the destination.
  h.node(0)->force_crash();
  h.orch->on_node_down(h.node(0), Seconds{10.0});
  EXPECT_EQ(h.postcopy_losses, 1);
  EXPECT_EQ(h.node(1)->hypervisor().vm_count(), 0u);
  EXPECT_EQ(h.orch->stats().cancelled, 1u);
  EXPECT_TRUE(h.orch->tickets().empty());
}

TEST(MigrationOrchestrator, CancelRacesTimerThenVmMigratesAgain) {
  DirectHarness h(3, MigrationModel{});
  ASSERT_TRUE(h.node(0)->place_vm(make_vm(1)));
  ASSERT_TRUE(h.orch->submit(1, h.node(0), h.node(1), 2, 2048.0,
                             MigrationPriority::kEopRetreat, 0_s, 0, 1));
  h.orch->advance(Seconds{1.0});

  // Departure-style cancel with the round-completion message already in
  // flight for t = 2.048.
  h.orch->cancel_vm(1, Seconds{1.0});
  EXPECT_FALSE(h.orch->in_flight(1));
  h.orch->advance(Seconds{3.0});  // stale message drains as a no-op
  EXPECT_EQ(h.commits, 0);
  EXPECT_EQ(h.orch->stats().cancelled, 1u);

  // The same VM id migrates again afterwards: sequence numbers are never
  // reused, so the old message cannot alias the new ticket's timer and
  // the re-migration completes normally.
  ASSERT_TRUE(h.orch->submit(1, h.node(0), h.node(2), 2, 2048.0,
                             MigrationPriority::kEopRetreat, Seconds{3.0},
                             0, 2));
  h.orch->advance(Seconds{6.0});
  EXPECT_EQ(h.orch->stats().completed, 1u);
  EXPECT_EQ(h.orch->stats().submitted, 2u);
  EXPECT_EQ(h.commits, 1);
  EXPECT_EQ(h.node(2)->hypervisor().vm_count(), 1u);
  ASSERT_EQ(h.finished.size(), 2u);
  EXPECT_EQ(h.finished[0].second,
            MigrationOrchestrator::Outcome::kCancelled);
  EXPECT_EQ(h.finished[1].second,
            MigrationOrchestrator::Outcome::kCompleted);
}

TEST(MigrationOrchestrator, StaleTimerIsIgnoredByAResubmittedTicket) {
  DirectHarness h(3, MigrationModel{});
  ASSERT_TRUE(h.node(0)->place_vm(make_vm(1)));
  ASSERT_TRUE(h.orch->submit(1, h.node(0), h.node(1), 2, 2048.0,
                             MigrationPriority::kEopRetreat, 0_s, 0, 1));
  h.orch->advance(Seconds{1.0});

  // Cancel with the first round's message pending for t = 2.048, and
  // resubmit the same VM at once: the new ticket's first round is due
  // at t = 1 + 2.048 = 3.048, after the stale message.
  h.orch->cancel_vm(1, Seconds{1.0});
  ASSERT_TRUE(h.orch->submit(1, h.node(0), h.node(2), 2, 2048.0,
                             MigrationPriority::kEopRetreat, Seconds{1.0},
                             0, 2));

  // The stale message pops here and must not run the new ticket's round.
  h.orch->advance(Seconds{2.5});
  ASSERT_TRUE(h.orch->in_flight(1));
  const MigrationTicket& t = h.orch->tickets().at(1);
  EXPECT_EQ(t.phase, MigrationPhase::kPreCopy);
  EXPECT_EQ(t.round, 0);
  EXPECT_EQ(t.transferred_mb, 0.0);
  EXPECT_EQ(h.traffic_mb, 0.0);
  EXPECT_EQ(h.orch->stats().transferred_mb, 0.0);

  h.orch->advance(Seconds{6.0});
  EXPECT_FALSE(h.orch->in_flight(1));
  EXPECT_EQ(h.commits, 1);
  EXPECT_EQ(h.orch->stats().completed, 1u);
  EXPECT_EQ(h.orch->stats().cancelled, 1u);
  EXPECT_EQ(h.node(2)->hypervisor().vm_count(), 1u);
  ASSERT_EQ(h.finished.size(), 2u);
  EXPECT_EQ(h.finished[1].second,
            MigrationOrchestrator::Outcome::kCompleted);
  EXPECT_NEAR(h.last_finished.finished_at.value, 1.0 + 2.3552, 1e-9);
}

TEST(MigrationOrchestrator, CommitRefusalCancelsTheTicket) {
  DirectHarness h(2, MigrationModel{});
  ASSERT_TRUE(h.node(0)->place_vm(make_vm(1)));
  ASSERT_TRUE(h.orch->submit(1, h.node(0), h.node(1), 2, 2048.0,
                             MigrationPriority::kEopRetreat, 0_s, 0, 1));
  h.fail_commits = true;  // capacity raced away under the reservation
  h.orch->advance(Seconds{5.0});
  EXPECT_EQ(h.orch->stats().cancelled, 1u);
  EXPECT_EQ(h.orch->stats().completed, 0u);
  EXPECT_TRUE(h.orch->tickets().empty());
  EXPECT_EQ(h.node(0)->hypervisor().vm_count(), 1u);
  EXPECT_EQ(h.node(1)->free_vcpus(), h.node(1)->total_vcpus());
}

TEST(MigrationOrchestrator, SubmitRejectsDuplicatesAndBadTargets) {
  DirectHarness h(2, MigrationModel{});
  ASSERT_TRUE(h.node(0)->place_vm(make_vm(1)));
  EXPECT_FALSE(h.orch->submit(1, h.node(0), h.node(0), 2, 2048.0,
                              MigrationPriority::kEopRetreat, 0_s, 0, 0));
  EXPECT_FALSE(h.orch->submit(1, nullptr, h.node(1), 2, 2048.0,
                              MigrationPriority::kEopRetreat, 0_s, 0, 1));
  ASSERT_TRUE(h.orch->submit(1, h.node(0), h.node(1), 2, 2048.0,
                             MigrationPriority::kEopRetreat, 0_s, 0, 1));
  // Already in flight.
  EXPECT_FALSE(h.orch->submit(1, h.node(0), h.node(1), 2, 2048.0,
                              MigrationPriority::kEopRetreat, 0_s, 0, 1));
  // Reservation that cannot fit.
  EXPECT_FALSE(h.orch->submit(2, h.node(0), h.node(1), 99, 2048.0,
                              MigrationPriority::kEopRetreat, 0_s, 0, 1));
  EXPECT_EQ(h.orch->stats().submitted, 1u);
}

// -- Cloud integration -------------------------------------------------

trace::VmRequest request_at(std::uint64_t id, double arrival,
                            double lifetime, int vcpus = 2) {
  trace::VmRequest request;
  request.id = id;
  request.arrival = Seconds{arrival};
  request.lifetime = Seconds{lifetime};
  request.vcpus = vcpus;
  request.memory_mb = 2048.0;
  request.sla = trace::SlaClass::kStandard;
  request.workload = stress::web_service_profile();
  return request;
}

TEST(CloudMigrationStorm, RackPowerLossDrainsRackThroughLinkQueue) {
  CloudConfig config;
  config.policy = SchedulerPolicy::kFirstFit;
  config.nodes_per_rack = 4;  // 8 nodes -> racks {0..3} and {4..7}
  auto cloud =
      Cloud::make_uniform(config, node_spec(), hv::HvConfig{}, 8, 1);
  std::vector<trace::VmRequest> requests;
  for (std::uint64_t id = 1; id <= 6; ++id) {
    requests.push_back(request_at(id, 0.0, 72000.0));
  }
  cloud->run(requests, Seconds{120.0});
  ASSERT_EQ(cloud->stats().accepted, 6u);
  // First-fit packed everything into rack 0.
  for (const auto& placement : cloud->active_placements()) {
    ASSERT_EQ(cloud->rack_of(placement.node), 0);
  }

  cloud->inject_rack_power_loss(0);
  // All six tickets are in; the 4000/1000 MB/s link budget admits four
  // streams on rack 0's uplink and queues the other two.
  EXPECT_EQ(cloud->migrations().tickets().size(), 6u);
  EXPECT_EQ(cloud->migrations().active_count(), 4u);
  EXPECT_EQ(cloud->migrations().queued_count(), 2u);
  EXPECT_EQ(cloud->stats().migrations_started, 4u);

  cloud->run({}, Seconds{300.0});
  const CloudStats& stats = cloud->stats();
  EXPECT_EQ(stats.migrations, 6u);
  EXPECT_EQ(stats.migrations_started, 6u);
  EXPECT_EQ(stats.migrations_cancelled, 0u);
  EXPECT_TRUE(cloud->migrations().tickets().empty());
  const auto placements = cloud->active_placements();
  ASSERT_EQ(placements.size(), 6u);
  for (const auto& placement : placements) {
    EXPECT_EQ(cloud->rack_of(placement.node), 1)
        << "VM " << placement.id << " still in the lost rack";
  }
  // Copy-traffic energy accounting closes exactly: 6 x (2048 + 307.2)
  // MB on the wire at kJoulePerMb.
  EXPECT_NEAR(stats.migration_transferred_mb, 6.0 * 2355.2, 1e-6);
  EXPECT_NEAR(stats.migration_energy_kwh,
              Joule{6.0 * 2355.2 * MigrationModel::kJoulePerMb}.kwh(),
              1e-12);
  EXPECT_GT(stats.migration_downtime_s, 0.0);
}

TEST(CloudMigrationStorm, EopRetreatRestoresNominalAndDrainsTheNode) {
  CloudConfig config;
  config.policy = SchedulerPolicy::kFirstFit;
  config.nodes_per_rack = 1;  // every node on its own uplink
  auto cloud =
      Cloud::make_uniform(config, node_spec(), hv::HvConfig{}, 3, 1);
  cloud->run({request_at(1, 0.0, 72000.0)}, Seconds{120.0});
  ASSERT_EQ(cloud->stats().accepted, 1u);
  auto nodes = cloud->node_ptrs();
  const auto placements = cloud->active_placements();
  ASSERT_EQ(placements.size(), 1u);
  int host = -1;
  for (int i = 0; i < static_cast<int>(nodes.size()); ++i) {
    if (nodes[static_cast<std::size_t>(i)] == placements[0].node) host = i;
  }
  ASSERT_GE(host, 0);

  // Put the host on an aggressive extended operating point.
  ComputeNode* node = nodes[static_cast<std::size_t>(host)];
  hw::Eop eop = node->server().eop();
  eop.refresh = Seconds{5.0};
  node->server().set_eop(eop);

  cloud->inject_eop_retreat(host);
  // The retreat restored the nominal refresh and queued the drain.
  EXPECT_NEAR(node->server().eop().refresh.value,
              node->server().spec().dimm.nominal_refresh.value, 1e-12);
  EXPECT_TRUE(cloud->migrations().in_flight(1));

  cloud->run({}, Seconds{300.0});
  EXPECT_EQ(cloud->stats().migrations, 1u);
  EXPECT_EQ(node->hypervisor().vm_count(), 0u);
  const auto after = cloud->active_placements();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_NE(after[0].node, node);
}

TEST(CloudMigrationStorm, CrashDuringEvacuationCancelsInFlightTickets) {
  CloudConfig config;
  config.policy = SchedulerPolicy::kFirstFit;
  config.nodes_per_rack = 4;
  auto cloud =
      Cloud::make_uniform(config, node_spec(), hv::HvConfig{}, 8, 1);
  std::vector<trace::VmRequest> requests;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    requests.push_back(request_at(id, 0.0, 72000.0));
  }
  cloud->run(requests, Seconds{120.0});
  ASSERT_EQ(cloud->stats().accepted, 4u);

  cloud->inject_rack_power_loss(0);
  ASSERT_EQ(cloud->migrations().tickets().size(), 4u);
  // The rack's feed dies for real before the drain finishes: node 0's
  // residents are lost, their tickets cancelled, books balanced.
  cloud->inject_node_crash(0);
  const CloudStats& stats = cloud->stats();
  EXPECT_EQ(stats.migrations_cancelled, 4u);
  EXPECT_EQ(stats.lost_to_node_crash, 4u);
  EXPECT_TRUE(cloud->migrations().tickets().empty());
  EXPECT_EQ(stats.accepted,
            stats.completed + stats.lost_to_errors +
                stats.lost_to_node_crash +
                cloud->active_placements().size());
  // The fleet keeps running normally afterwards.
  cloud->run({request_at(9, 240.0, 600.0)}, Seconds{1200.0});
  EXPECT_EQ(cloud->stats().accepted, 5u);
  EXPECT_EQ(cloud->stats().completed, 1u);
}

// -- fuzz-backed acceptance criteria -----------------------------------

fuzz::FuzzEvent arrival_event(double at, std::uint64_t id) {
  fuzz::FuzzEvent event;
  event.at = Seconds{at};
  event.kind = fuzz::EventKind::kVmArrival;
  event.vm = request_at(id, at, 36000.0);
  return event;
}

fuzz::FuzzEvent storm_event(double at, int node) {
  fuzz::FuzzEvent event;
  event.at = Seconds{at};
  event.kind = fuzz::EventKind::kRackPowerLoss;
  event.node = node;
  return event;
}

TEST(MigrationStormFuzz, RackPowerLossScenarioKeepsOraclesGreen) {
  // Handcrafted storm: fill a 16-node fleet, then lose both racks'
  // power feeds in sequence. The oracle battery (including
  // migration-conservation and migration-energy) runs after every DES
  // step, so the invariants are checked with tickets in flight.
  fuzz::ScenarioConfig config;
  config.stack_seed = 21;
  config.nodes = 16;
  config.horizon = Seconds{3600.0};
  std::vector<fuzz::FuzzEvent> events;
  for (std::uint64_t id = 1; id <= 12; ++id) {
    events.push_back(arrival_event(60.0, id));
  }
  events.push_back(storm_event(300.0, 0));   // rack 0 (nodes 0..7)
  events.push_back(storm_event(360.0, 8));   // rack 1 (nodes 8..15)

  const auto outcome = fuzz::run_scenario(config, events);
  EXPECT_FALSE(outcome.violated())
      << outcome.violations[0].oracle << ": "
      << outcome.violations[0].detail;
  // Both racks were hit, so at least one resident VM was drained.
  EXPECT_GT(outcome.cloud_stats.migrations_started, 0u);
  // Pure function of (config, events): re-running reproduces the digest.
  EXPECT_EQ(outcome.digest, fuzz::run_scenario(config, events).digest);
}

TEST(MigrationStormFuzz, StormCampaign64NodesJobsInvariantAndGreen) {
  // The PR-6 acceptance criterion: a generated 64-node evacuation-storm
  // campaign completes with every oracle green and a bit-identical
  // digest for --jobs 1 vs --jobs 4.
  fuzz::CampaignConfig config;
  config.seed = 20260809;
  config.cases = 2;
  config.scenario.nodes = 64;
  config.scenario.events = 96;
  config.scenario.horizon = Seconds{7200.0};
  config.scenario.arrival_share = 0.6;
  config.scenario.storm_share = 0.3;

  par::set_default_jobs(1);
  const auto serial = fuzz::run_campaign(config);
  par::set_default_jobs(4);
  const auto parallel = fuzz::run_campaign(config);
  par::set_default_jobs(0);

  EXPECT_EQ(serial.digest, parallel.digest);
  EXPECT_EQ(serial.violated_cases, 0);
  EXPECT_EQ(parallel.violated_cases, 0);
  ASSERT_EQ(serial.cases.size(), parallel.cases.size());
  for (std::size_t i = 0; i < serial.cases.size(); ++i) {
    EXPECT_EQ(serial.cases[i].outcome.digest,
              parallel.cases[i].outcome.digest);
  }

  bool saw_storm = false;
  std::uint64_t started = 0;
  for (const auto& result : parallel.cases) {
    started += result.outcome.cloud_stats.migrations_started;
    for (const auto& event : result.events) {
      saw_storm |= event.kind == fuzz::EventKind::kRackPowerLoss ||
                   event.kind == fuzz::EventKind::kMassEopRetreat;
    }
  }
  EXPECT_TRUE(saw_storm) << "storm_share produced no storm events";
  EXPECT_GT(started, 0u) << "storms never drove the orchestrator";
}

TEST(MigrationStormFuzz, StormReplayRoundTripsThroughReplayFormat) {
  fuzz::ScenarioConfig config;
  config.nodes = 16;
  config.events = 48;
  config.storm_share = 0.4;
  Rng rng(33);
  const auto events = fuzz::generate_scenario(config, rng);
  bool has_storm = false;
  for (const auto& event : events) {
    has_storm |= event.kind == fuzz::EventKind::kRackPowerLoss ||
                 event.kind == fuzz::EventKind::kMassEopRetreat;
  }
  ASSERT_TRUE(has_storm);

  const std::string blob = fuzz::serialize_scenario(config, events);
  EXPECT_NE(blob.find("replay v3"), std::string::npos);
  fuzz::ScenarioConfig parsed_config;
  std::vector<fuzz::FuzzEvent> parsed_events;
  std::string error;
  ASSERT_TRUE(
      fuzz::parse_scenario(blob, parsed_config, parsed_events, error))
      << error;
  EXPECT_DOUBLE_EQ(parsed_config.storm_share, config.storm_share);
  ASSERT_EQ(parsed_events.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_TRUE(parsed_events[i] == events[i]) << "event " << i;
  }
}

TEST(MigrationStormFuzz, V1ReplayFilesStillParse) {
  // Pre-storm replay files carry no storm_share (and possibly no
  // arrival_share); they must keep parsing with the old defaults so
  // archived reproducers stay replayable.
  fuzz::ScenarioConfig config;
  std::vector<fuzz::FuzzEvent> events;
  std::string error;
  ASSERT_TRUE(fuzz::parse_scenario("config 1 3 3600 60 arm 0\n"
                                   "event 60 4 1 0 0\n",
                                   config, events, error))
      << error;
  EXPECT_DOUBLE_EQ(config.storm_share, 0.0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, fuzz::EventKind::kNodeCrash);
  // v2 storm records parse by code.
  ASSERT_TRUE(fuzz::parse_scenario(
      "config 1 16 3600 60 arm 0 0.55 0.25\n"
      "event 300 7 2 0 0\n"
      "event 360 8 1 0 3\n",
      config, events, error))
      << error;
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, fuzz::EventKind::kRackPowerLoss);
  EXPECT_EQ(events[1].kind, fuzz::EventKind::kMassEopRetreat);
  EXPECT_EQ(events[1].count, 3u);
  EXPECT_DOUBLE_EQ(config.storm_share, 0.25);
}

}  // namespace
}  // namespace uniserver::osk
