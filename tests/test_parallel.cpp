// The deterministic-execution contract of common/parallel.h: every
// campaign loop must produce bit-identical results for --jobs 1 and
// --jobs 4 under the same seed, because the coordinator forks one Rng
// substream per work item in index order before any item runs.
#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "hwmodel/chip.h"
#include "hwmodel/chip_spec.h"
#include "hwmodel/dram_model.h"
#include "hypervisor/fault_injection.h"
#include "hypervisor/objects.h"
#include "stress/profiles.h"
#include "stress/shmoo.h"
#include "stress/shmoo_surface.h"
#include "tco/explorer.h"
#include "telemetry/metrics.h"

namespace uniserver {
namespace {

// Restores the process-wide worker count even when a test fails.
class JobsGuard {
 public:
  explicit JobsGuard(unsigned jobs) { par::set_default_jobs(jobs); }
  ~JobsGuard() { par::set_default_jobs(0); }
};

// -- engine primitives ------------------------------------------------

TEST(Parallel, HardwareJobsIsPositive) {
  EXPECT_GE(par::hardware_jobs(), 1u);
  EXPECT_GE(par::default_jobs(), 1u);
}

TEST(Parallel, SetDefaultJobsZeroMeansHardware) {
  JobsGuard guard(3);
  EXPECT_EQ(par::default_jobs(), 3u);
  par::set_default_jobs(0);
  EXPECT_EQ(par::default_jobs(), par::hardware_jobs());
}

TEST(Parallel, ParseJobsAcceptsOnlyDecimalCountsUpToTheBound) {
  EXPECT_EQ(par::parse_jobs("0"), 0u);
  EXPECT_EQ(par::parse_jobs("1"), 1u);
  EXPECT_EQ(par::parse_jobs("4"), 4u);
  EXPECT_EQ(par::parse_jobs("007"), 7u);
  EXPECT_EQ(par::parse_jobs("256"), par::kMaxJobs);
  // Past the bound, including values that wrap an unsigned.
  EXPECT_EQ(par::parse_jobs("257"), std::nullopt);
  EXPECT_EQ(par::parse_jobs("4294967295"), std::nullopt);
  EXPECT_EQ(par::parse_jobs("18446744073709551617"), std::nullopt);
  // Not a plain decimal count.
  for (const char* text : {"", "-1", "+4", " 4", "4 ", "4x", "0x10", "1e3",
                           "four", "2.5"}) {
    EXPECT_EQ(par::parse_jobs(text), std::nullopt) << '"' << text << '"';
  }
  EXPECT_EQ(par::parse_jobs(nullptr), std::nullopt);
}

TEST(Parallel, SetDefaultJobsRejectsCountsAboveTheBound) {
  // Both calls throw before any pool is built for the count.
  JobsGuard guard(3);
  EXPECT_THROW(par::set_default_jobs(par::kMaxJobs + 1),
               std::invalid_argument);
  EXPECT_THROW(par::set_default_jobs(4294967295u), std::invalid_argument);
  EXPECT_EQ(par::default_jobs(), 3u);
}

TEST(Parallel, ForEachVisitsEveryIndexExactlyOnce) {
  for (unsigned jobs : {1u, 2u, 4u}) {
    JobsGuard guard(jobs);
    constexpr std::size_t kItems = 1000;
    std::vector<std::atomic<int>> visits(kItems);
    par::parallel_for_each(kItems,
                           [&](std::size_t i) { visits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kItems; ++i) {
      ASSERT_EQ(visits[i].load(), 1) << "index " << i << " jobs " << jobs;
    }
  }
}

TEST(Parallel, EmptyRangeIsANoop) {
  JobsGuard guard(4);
  std::atomic<bool> called{false};
  par::parallel_for_each(0, [&](std::size_t) { called.store(true); });
  EXPECT_FALSE(called.load());
}

TEST(Parallel, SetDefaultJobsInsideRegionThrows) {
  JobsGuard guard(2);
  std::atomic<int> throws{0};
  par::parallel_for_each(8, [&](std::size_t) {
    try {
      par::set_default_jobs(3);
    } catch (const std::logic_error&) {
      throws.fetch_add(1);
    }
  });
  EXPECT_EQ(throws.load(), 8);
  // The resize was refused: the knob is untouched and the pool alive.
  EXPECT_EQ(par::default_jobs(), 2u);
  std::atomic<std::size_t> ran{0};
  par::parallel_for_each(16, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 16u);
}

TEST(Parallel, SetDefaultJobsInsideSerialRegionThrows) {
  JobsGuard guard(1);
  std::atomic<int> throws{0};
  par::parallel_for_each(2, [&](std::size_t) {
    try {
      par::set_default_jobs(4);
    } catch (const std::logic_error&) {
      throws.fetch_add(1);
    }
  });
  EXPECT_EQ(throws.load(), 2);
  EXPECT_EQ(par::default_jobs(), 1u);
}

TEST(Parallel, ExceptionsPropagateToCaller) {
  for (unsigned jobs : {1u, 4u}) {
    JobsGuard guard(jobs);
    EXPECT_THROW(par::parallel_for_each(
                     100,
                     [](std::size_t i) {
                       if (i == 37) throw std::runtime_error("item 37");
                     }),
                 std::runtime_error)
        << "jobs " << jobs;
    // The pool must still be usable after a failed region.
    std::atomic<std::size_t> ran{0};
    par::parallel_for_each(50, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 50u);
  }
}

TEST(Parallel, NestedRegionsRunInline) {
  JobsGuard guard(4);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 16;
  std::vector<std::atomic<int>> visits(kOuter * kInner);
  par::parallel_for_each(kOuter, [&](std::size_t outer) {
    par::parallel_for_each(kInner, [&](std::size_t inner) {
      visits[outer * kInner + inner].fetch_add(1);
    });
  });
  for (const auto& v : visits) ASSERT_EQ(v.load(), 1);
}

TEST(Parallel, ForkStreamsMatchSerialForks) {
  Rng a(123);
  std::vector<Rng> streams = par::fork_streams(a, 5);
  Rng b(123);
  for (std::size_t i = 0; i < streams.size(); ++i) {
    Rng expected = b.fork(i);
    for (int draw = 0; draw < 50; ++draw) {
      ASSERT_EQ(streams[i].next(), expected.next()) << "stream " << i;
    }
  }
}

TEST(Parallel, MapPreservesIndexOrder) {
  JobsGuard guard(4);
  const auto squares = par::parallel_map<std::uint64_t>(
      257, [](std::size_t i) { return static_cast<std::uint64_t>(i * i); });
  ASSERT_EQ(squares.size(), 257u);
  for (std::size_t i = 0; i < squares.size(); ++i) {
    ASSERT_EQ(squares[i], i * i);
  }
}

TEST(Parallel, ReduceFoldsSeriallyInIndexOrder) {
  JobsGuard guard(4);
  const auto ordered = par::parallel_reduce<std::vector<std::size_t>,
                                            std::size_t>(
      100, {}, [](std::size_t i) { return i; },
      [](std::vector<std::size_t>& acc, const std::size_t& i) {
        acc.push_back(i);
      });
  ASSERT_EQ(ordered.size(), 100u);
  for (std::size_t i = 0; i < ordered.size(); ++i) ASSERT_EQ(ordered[i], i);
}

TEST(Parallel, PoolMetricsAreRegistered) {
  JobsGuard guard(2);
  // Metrics register lazily on the engine's first region — prime it.
  par::parallel_for_each(1, [](std::size_t) {});
  auto& registry = telemetry::MetricsRegistry::global();
  auto* tasks = registry.find_counter("exec.pool.tasks");
  auto* regions = registry.find_counter("exec.pool.regions");
  ASSERT_NE(tasks, nullptr);
  ASSERT_NE(regions, nullptr);
  ASSERT_NE(registry.find_gauge("exec.pool.busy_workers"), nullptr);
  ASSERT_NE(registry.find_histogram("exec.pool.queue_wait_us"), nullptr);
  const std::uint64_t tasks_before = tasks->value();
  const std::uint64_t regions_before = regions->value();
  par::parallel_for_each(64, [](std::size_t) {});
  EXPECT_EQ(tasks->value(), tasks_before + 64);
  EXPECT_EQ(regions->value(), regions_before + 1);
}

// -- campaign determinism: jobs=1 vs jobs=4 ---------------------------

template <class Fn>
auto with_jobs(unsigned jobs, Fn&& fn) {
  JobsGuard guard(jobs);
  return fn();
}

TEST(ParallelDeterminism, ShmooSurfaceBitIdentical) {
  const auto run = [] {
    hw::Chip chip(hw::arm_soc_spec(), 42);
    Rng rng(7);
    return stress::characterize_surface(
        chip, *stress::spec_profile("h264ref"), {}, rng);
  };
  const auto serial = with_jobs(1, run);
  const auto parallel = with_jobs(4, run);
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  EXPECT_EQ(serial.cells, parallel.cells);
  EXPECT_EQ(serial.offsets_percent, parallel.offsets_percent);
  EXPECT_EQ(serial.ascii(), parallel.ascii());
}

TEST(ParallelDeterminism, ShmooCampaignBitIdentical) {
  const auto run = [] {
    hw::Chip chip(hw::arm_soc_spec(), 42);
    stress::ShmooCharacterizer characterizer;
    Rng rng(11);
    return characterizer.campaign(chip, stress::spec2006_profiles(),
                                  chip.spec().freq_nominal, rng);
  };
  const auto serial = with_jobs(1, run);
  const auto parallel = with_jobs(4, run);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t w = 0; w < serial.size(); ++w) {
    EXPECT_EQ(serial[w].workload, parallel[w].workload);
    EXPECT_EQ(serial[w].system_crash_offset, parallel[w].system_crash_offset);
    EXPECT_EQ(serial[w].core_to_core_variation,
              parallel[w].core_to_core_variation);
    ASSERT_EQ(serial[w].per_core.size(), parallel[w].per_core.size());
    for (std::size_t c = 0; c < serial[w].per_core.size(); ++c) {
      const auto& a = serial[w].per_core[c];
      const auto& b = parallel[w].per_core[c];
      EXPECT_EQ(a.crash_offset_min, b.crash_offset_min);
      EXPECT_EQ(a.crash_offset_max, b.crash_offset_max);
      EXPECT_EQ(a.crash_offset_mean, b.crash_offset_mean);
      EXPECT_EQ(a.ecc_errors_min, b.ecc_errors_min);
      EXPECT_EQ(a.ecc_errors_max, b.ecc_errors_max);
    }
  }
}

TEST(ParallelDeterminism, FaultCampaignBitIdentical) {
  const auto run = [] {
    hv::ObjectInventory inventory(99);
    hv::FaultInjector injector(inventory);
    Rng rng(13);
    return injector.run_campaign(
        {.runs_per_object = 5, .workload_loaded = true}, rng);
  };
  const auto serial = with_jobs(1, run);
  const auto parallel = with_jobs(4, run);
  EXPECT_EQ(serial.total_injections, parallel.total_injections);
  EXPECT_EQ(serial.total_fatal, parallel.total_fatal);
  EXPECT_EQ(serial.fatal_runs_per_object, parallel.fatal_runs_per_object);
  EXPECT_EQ(serial.fatal_by_category, parallel.fatal_by_category);
}

TEST(ParallelDeterminism, TcoSweepBitIdentical) {
  const auto run = [] {
    tco::TcoExplorer explorer;
    const std::vector<tco::SweepDimension> dims{
        tco::TcoExplorer::electricity_price_usd({0.08, 0.12, 0.20}),
        tco::TcoExplorer::pue({1.05, 1.1, 1.3}),
        tco::TcoExplorer::server_power_w({25.0, 35.0, 50.0}),
    };
    return explorer.sweep(tco::edge_datacenter_spec(), dims, 1.5);
  };
  const auto serial = with_jobs(1, run);
  const auto parallel = with_jobs(4, run);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].spec.pue, parallel[i].spec.pue);
    EXPECT_EQ(serial[i].spec.electricity_per_kwh.value,
              parallel[i].spec.electricity_per_kwh.value);
    EXPECT_EQ(serial[i].spec.server_avg_power.value,
              parallel[i].spec.server_avg_power.value);
    EXPECT_EQ(serial[i].breakdown.total().value,
              parallel[i].breakdown.total().value);
    EXPECT_EQ(serial[i].cost_per_server_year.value,
              parallel[i].cost_per_server_year.value);
  }
}

TEST(ParallelDeterminism, DramSweepBitIdentical) {
  const auto run = [] {
    hw::DimmSpec spec;
    hw::DimmModel dimm(spec, 7);
    Rng rng(7);
    const std::vector<Seconds> intervals{Seconds{0.064}, Seconds{0.512},
                                         Seconds{1.5}, Seconds{5.0}};
    std::vector<Rng> streams = par::fork_streams(rng, intervals.size());
    return par::parallel_map<std::uint64_t>(
        intervals.size(), [&](std::size_t i) {
          std::uint64_t errors = 0;
          for (int pass = 0; pass < 3; ++pass) {
            errors +=
                dimm.sample_errors(intervals[i], Celsius{28.0}, streams[i]);
          }
          return errors;
        });
  };
  const auto serial = with_jobs(1, run);
  const auto parallel = with_jobs(4, run);
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace uniserver
