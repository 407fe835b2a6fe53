// Tests of the fine-grained VM monitor.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "openstack/monitor.h"

namespace uniserver {
namespace {

TEST(VmMonitorTest, UsageAggregates) {
  // A fixed profile over two ticks, with two hits in the second.
  osk::VmMonitor monitor;
  monitor.admit(1, 0.5, 2000.0);
  monitor.advance();
  monitor.advance();
  monitor.record_hit(1);
  monitor.record_hit(1);
  const osk::VmUsage usage = monitor.usage(1);
  EXPECT_EQ(usage.samples, 2u);
  EXPECT_DOUBLE_EQ(usage.mean_cpu, 0.5);
  EXPECT_DOUBLE_EQ(usage.peak_cpu, 0.5);
  EXPECT_DOUBLE_EQ(usage.mean_memory_mb, 2000.0);
  EXPECT_DOUBLE_EQ(usage.peak_memory_mb, 2000.0);
  EXPECT_EQ(usage.total_errors, 2u);
}

TEST(VmMonitorTest, UnknownVmIsZero) {
  osk::VmMonitor monitor;
  monitor.advance();
  monitor.record_hit(9);  // ignored: never admitted
  EXPECT_EQ(monitor.tracked_vms(), 0u);
  EXPECT_EQ(monitor.usage(9).samples, 0u);
  EXPECT_DOUBLE_EQ(monitor.susceptibility(9), 0.0);
}

TEST(VmMonitorTest, WindowBoundsHistory) {
  constexpr std::size_t kWindow = osk::VmMonitor::kWindow;
  osk::VmMonitor monitor;
  monitor.admit(1, 1.0, 1000.0);
  for (std::size_t i = 0; i < kWindow + 20; ++i) {
    monitor.advance();
    monitor.record_hit(1);
    EXPECT_EQ(monitor.usage(1).samples, std::min(i + 1, kWindow));
  }
  EXPECT_EQ(monitor.usage(1).samples, kWindow);
  EXPECT_EQ(monitor.usage(1).total_errors, kWindow);
}

TEST(VmMonitorTest, SusceptibilityRanksBigBusyErrorProneFirst) {
  osk::VmMonitor monitor;
  // VM 1: small, idle. VM 2: big and busy. VM 3: big, busy AND has
  // already absorbed errors.
  monitor.admit(1, 0.05, 512.0);
  monitor.admit(2, 0.9, 16384.0);
  monitor.admit(3, 0.9, 16384.0);
  for (int i = 0; i < 10; ++i) {
    monitor.advance();
    for (int hit = 0; i == 0 && hit < 5; ++hit) monitor.record_hit(3);
  }
  const auto ranked = monitor.ranked_by_susceptibility();
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0], 3u);
  EXPECT_EQ(ranked[1], 2u);
  EXPECT_EQ(ranked[2], 1u);
  EXPECT_GT(monitor.susceptibility(3), monitor.susceptibility(2));
  EXPECT_LE(monitor.susceptibility(3), 1.0);
}

TEST(VmMonitorTest, CandidateRankingIsTheFullRankingFiltered) {
  Rng rng(23);
  osk::VmMonitor monitor;
  // Coarse profiles so many VMs tie on susceptibility (ties go to the
  // lower id in both rankings).
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t id = 1 + rng.uniform_u64(150);
    if (rng.bernoulli(0.05)) monitor.advance();
    if (rng.bernoulli(0.3)) {
      monitor.admit(id, 0.25 * static_cast<double>(rng.uniform_int(0, 4)),
                    4096.0 * static_cast<double>(rng.uniform_int(0, 4)));
    } else if (rng.bernoulli(0.05)) {
      monitor.record_hit(id);
    }
  }
  const std::vector<std::uint64_t> full = monitor.ranked_by_susceptibility();
  for (int trial = 0; trial < 50; ++trial) {
    // Distinct candidates in any order, some never tracked.
    std::vector<std::uint64_t> candidates;
    for (std::uint64_t id = 1; id <= 200; ++id) {
      if (rng.bernoulli(0.2)) candidates.push_back(id);
    }
    std::shuffle(candidates.begin(), candidates.end(), rng);
    const std::set<std::uint64_t> wanted(candidates.begin(),
                                         candidates.end());
    std::vector<std::uint64_t> expected;
    for (std::uint64_t id : full) {
      if (wanted.contains(id)) expected.push_back(id);
    }
    EXPECT_EQ(monitor.ranked_by_susceptibility(candidates), expected);
  }
  EXPECT_TRUE(monitor.ranked_by_susceptibility({}).empty());
}

TEST(VmMonitorTest, ForgetDropsHistory) {
  osk::VmMonitor monitor;
  monitor.admit(1, 0.5, 2048.0);
  monitor.advance();
  EXPECT_EQ(monitor.tracked_vms(), 1u);
  monitor.forget(1);
  monitor.record_hit(1);  // ignored: forgotten
  EXPECT_EQ(monitor.tracked_vms(), 0u);
  EXPECT_EQ(monitor.usage(1).samples, 0u);
}

// One monitoring sample, as the monitor was first written to take them.
struct Sample {
  double cpu_utilization{0.0};
  double memory_mb{0.0};
  std::uint64_t error_events{0};
};

// The monitor as it was first written: a deque of samples per VM in an
// ordered map, one sample per tracked VM per control tick. Kept as the
// reference the profile-and-hits monitor must match bit for bit.
class DequeMonitor {
 public:
  void admit(std::uint64_t vm_id, double cpu, double memory_mb) {
    profiles_[vm_id] = Sample{cpu, memory_mb, 0};
    histories_[vm_id].clear();
  }

  /// One control tick: every tracked VM records a sample carrying the
  /// tick's hit count.
  void tick(const std::map<std::uint64_t, std::uint64_t>& hits) {
    for (auto& [id, history] : histories_) {
      Sample sample = profiles_.at(id);
      const auto hit = hits.find(id);
      if (hit != hits.end()) sample.error_events = hit->second;
      history.push_back(sample);
      while (history.size() > osk::VmMonitor::kWindow) history.pop_front();
    }
  }

  void forget(std::uint64_t vm_id) {
    histories_.erase(vm_id);
    profiles_.erase(vm_id);
  }

  osk::VmUsage usage(std::uint64_t vm_id) const {
    osk::VmUsage usage;
    const auto it = histories_.find(vm_id);
    if (it == histories_.end() || it->second.empty()) return usage;
    for (const Sample& sample : it->second) {
      usage.mean_cpu += sample.cpu_utilization;
      usage.peak_cpu = std::max(usage.peak_cpu, sample.cpu_utilization);
      usage.mean_memory_mb += sample.memory_mb;
      usage.peak_memory_mb = std::max(usage.peak_memory_mb, sample.memory_mb);
      usage.total_errors += sample.error_events;
    }
    usage.samples = it->second.size();
    const auto n = static_cast<double>(usage.samples);
    usage.mean_cpu /= n;
    usage.mean_memory_mb /= n;
    return usage;
  }

  double susceptibility(std::uint64_t vm_id) const {
    const osk::VmUsage u = usage(vm_id);
    if (u.samples == 0) return 0.0;
    using M = osk::VmMonitor;
    const double memory_term =
        std::min(1.0, u.mean_memory_mb / M::kMemoryScaleMb);
    const double cpu_term = std::min(1.0, u.mean_cpu);
    const double error_term =
        std::min(1.0, static_cast<double>(u.total_errors) / M::kErrorScale);
    return M::kWeightMemory * memory_term + M::kWeightCpu * cpu_term +
           M::kWeightErrors * error_term;
  }

  std::vector<std::uint64_t> ranked_by_susceptibility() const {
    std::vector<std::uint64_t> ids;
    for (const auto& [id, history] : histories_) ids.push_back(id);
    std::sort(ids.begin(), ids.end(),
              [this](std::uint64_t a, std::uint64_t b) {
                const double sa = susceptibility(a);
                const double sb = susceptibility(b);
                if (sa != sb) return sa > sb;
                return a < b;
              });
    return ids;
  }

  std::vector<std::uint64_t> ranked_by_susceptibility(
      const std::vector<std::uint64_t>& candidates) const {
    std::vector<std::uint64_t> ids;
    for (std::uint64_t id : ranked_by_susceptibility()) {
      if (std::find(candidates.begin(), candidates.end(), id) !=
          candidates.end()) {
        ids.push_back(id);
      }
    }
    return ids;
  }

  std::size_t tracked_vms() const { return histories_.size(); }

 private:
  std::map<std::uint64_t, Sample> profiles_;
  std::map<std::uint64_t, std::deque<Sample>> histories_;
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(VmMonitorDifferential, ProfileMonitorMatchesDequeReference) {
  constexpr std::size_t kWindow = osk::VmMonitor::kWindow;
  int forgets = 0;
  int reused = 0;
  std::uint64_t hits_counted = 0;
  int full_windows = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    osk::VmMonitor monitor;
    DequeMonitor reference;
    Rng rng(seed * 131 + kWindow);
    // Frequent forgets churn ids; rare ones let VMs outlive the
    // 128-tick window.
    const double forget_share = seed <= 4 ? 0.06 : 0.005;
    std::set<std::uint64_t> tracked;
    std::set<std::uint64_t> forgotten;
    for (int tick = 0; tick < 3000; ++tick) {
      // Between control ticks: admissions and exits. A small id pool,
      // so forgotten ids come back.
      for (std::int64_t op = rng.uniform_int(0, 3); op > 0; --op) {
        const std::uint64_t id = 1 + rng.uniform_u64(24);
        if (rng.bernoulli(forget_share)) {
          monitor.forget(id);
          reference.forget(id);
          tracked.erase(id);
          forgotten.insert(id);
          ++forgets;
        } else if (tracked.insert(id).second) {
          if (forgotten.erase(id) > 0) ++reused;
          // Fine values exercise summation order; coarse ones make
          // ties for the rankings.
          const bool coarse = rng.bernoulli(0.5);
          const double cpu =
              coarse ? 0.25 * static_cast<double>(rng.uniform_int(0, 4))
                     : rng.uniform();
          const double memory_mb =
              coarse ? 4096.0 * static_cast<double>(rng.uniform_int(0, 4))
                     : rng.uniform(0.0, 32768.0);
          monitor.admit(id, cpu, memory_mb);
          reference.admit(id, cpu, memory_mb);
        }
      }
      // One control tick, then its hits (some on untracked ids).
      monitor.advance();
      std::map<std::uint64_t, std::uint64_t> hits;
      for (std::int64_t hit = rng.uniform_int(0, 3); hit > 0; --hit) {
        const std::uint64_t id = 1 + rng.uniform_u64(26);
        monitor.record_hit(id);
        if (tracked.contains(id)) ++hits[id];
      }
      reference.tick(hits);
      if (tick % 7 != 0) continue;

      ASSERT_EQ(monitor.tracked_vms(), reference.tracked_vms());
      for (std::uint64_t q = 0; q <= 27; ++q) {
        const osk::VmUsage got = monitor.usage(q);
        const osk::VmUsage want = reference.usage(q);
        ASSERT_EQ(got.samples, want.samples) << "vm " << q;
        ASSERT_EQ(bits(got.mean_cpu), bits(want.mean_cpu)) << "vm " << q;
        ASSERT_EQ(bits(got.peak_cpu), bits(want.peak_cpu)) << "vm " << q;
        ASSERT_EQ(bits(got.mean_memory_mb), bits(want.mean_memory_mb))
            << "vm " << q;
        ASSERT_EQ(bits(got.peak_memory_mb), bits(want.peak_memory_mb))
            << "vm " << q;
        ASSERT_EQ(got.total_errors, want.total_errors) << "vm " << q;
        ASSERT_EQ(bits(monitor.susceptibility(q)),
                  bits(reference.susceptibility(q)))
            << "vm " << q;
        hits_counted += got.total_errors;
        if (got.samples == kWindow) ++full_windows;
      }
      ASSERT_EQ(monitor.ranked_by_susceptibility(),
                reference.ranked_by_susceptibility());
      std::vector<std::uint64_t> candidates;
      for (std::uint64_t q = 0; q <= 27; ++q) {
        if (rng.bernoulli(0.4)) candidates.push_back(q);
      }
      std::shuffle(candidates.begin(), candidates.end(), rng);
      ASSERT_EQ(monitor.ranked_by_susceptibility(candidates),
                reference.ranked_by_susceptibility(candidates));
    }
  }
  // The sequences forget VMs, bring their ids back, attribute hits and
  // fill the window.
  EXPECT_GT(forgets, 500);
  EXPECT_GT(reused, 500);
  EXPECT_GT(hits_counted, 1000u);
  EXPECT_GT(full_windows, 50);
}

}  // namespace
}  // namespace uniserver
