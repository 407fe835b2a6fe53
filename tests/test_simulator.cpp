#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace uniserver::sim {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.schedule_in(Seconds{3.0}, [&order] { order.push_back(3); });
  simulator.schedule_in(Seconds{1.0}, [&order] { order.push_back(1); });
  simulator.schedule_in(Seconds{2.0}, [&order] { order.push_back(2); });
  EXPECT_EQ(simulator.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(simulator.now().value, 3.0);
}

TEST(Simulator, SameTimeIsFifo) {
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    simulator.schedule_in(Seconds{1.0}, [&order, i] { order.push_back(i); });
  }
  simulator.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator simulator;
  bool fired = false;
  simulator.schedule_in(Seconds{-5.0}, [&fired] { fired = true; });
  simulator.run();
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(simulator.now().value, 0.0);
}

TEST(Simulator, ScheduleAtAbsoluteTime) {
  Simulator simulator;
  double fired_at = -1.0;
  simulator.schedule_at(Seconds{7.5},
                        [&] { fired_at = simulator.now().value; });
  simulator.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator simulator;
  bool fired = false;
  const EventId id =
      simulator.schedule_in(Seconds{1.0}, [&fired] { fired = true; });
  EXPECT_TRUE(simulator.cancel(id));
  EXPECT_FALSE(simulator.cancel(id));  // already cancelled
  simulator.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, PeriodicFiresRepeatedlyUntilCancelled) {
  Simulator simulator;
  int count = 0;
  const EventId id = simulator.schedule_every(Seconds{1.0}, [&] {
    ++count;
  });
  simulator.run_until(Seconds{5.5});
  EXPECT_EQ(count, 5);
  EXPECT_TRUE(simulator.cancel(id));
  simulator.run_until(Seconds{10.0});
  EXPECT_EQ(count, 5);
}

TEST(Simulator, PeriodicCancelFromWithinCallback) {
  Simulator simulator;
  int count = 0;
  EventId id = 0;
  id = simulator.schedule_every(Seconds{1.0}, [&] {
    if (++count == 3) simulator.cancel(id);
  });
  simulator.run_until(Seconds{100.0});
  EXPECT_EQ(count, 3);
}

// A callable that counts the copies made of it; moves are not counted.
struct CopyCounter {
  int* copies;
  int* calls;
  CopyCounter(int* copies, int* calls) : copies(copies), calls(calls) {}
  CopyCounter(const CopyCounter& other)
      : copies(other.copies), calls(other.calls) {
    ++*copies;
  }
  CopyCounter(CopyCounter&&) = default;
  void operator()() const { ++*calls; }
};

TEST(Simulator, PeriodicFiringsMakeNoCopyOfTheCallback) {
  Simulator simulator;
  int copies = 0;
  int calls = 0;
  const EventId id =
      simulator.schedule_every(Seconds{1.0}, CopyCounter{&copies, &calls});
  const int armed = copies;
  simulator.run_until(Seconds{100.5});
  EXPECT_EQ(calls, 100);
  EXPECT_EQ(copies, armed);
  EXPECT_EQ(simulator.pending(), 1u);
  EXPECT_TRUE(simulator.cancel(id));
  EXPECT_EQ(simulator.pending(), 0u);
}

TEST(Simulator, RunUntilAdvancesClockPastLastEvent) {
  Simulator simulator;
  simulator.schedule_in(Seconds{1.0}, [] {});
  simulator.run_until(Seconds{42.0});
  EXPECT_DOUBLE_EQ(simulator.now().value, 42.0);
}

TEST(Simulator, RunUntilLeavesLaterEventsPending) {
  Simulator simulator;
  bool late_fired = false;
  simulator.schedule_in(Seconds{10.0}, [&] { late_fired = true; });
  simulator.run_until(Seconds{5.0});
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(simulator.pending(), 1u);
  simulator.run();
  EXPECT_TRUE(late_fired);
}

TEST(Simulator, RunWithLimitStops) {
  Simulator simulator;
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    simulator.schedule_in(Seconds{1.0 * i}, [&fired] { ++fired; });
  }
  EXPECT_EQ(simulator.run(4), 4u);
  EXPECT_EQ(fired, 4);
}

TEST(Simulator, EventsScheduledFromCallbacksRun) {
  Simulator simulator;
  std::vector<double> times;
  simulator.schedule_in(Seconds{1.0}, [&] {
    times.push_back(simulator.now().value);
    simulator.schedule_in(Seconds{2.0},
                          [&] { times.push_back(simulator.now().value); });
  });
  simulator.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 3.0);
}

TEST(Simulator, PendingCountsOnlyLive) {
  Simulator simulator;
  const EventId a = simulator.schedule_in(Seconds{1.0}, [] {});
  simulator.schedule_in(Seconds{2.0}, [] {});
  EXPECT_EQ(simulator.pending(), 2u);
  simulator.cancel(a);
  EXPECT_EQ(simulator.pending(), 1u);
}

}  // namespace
}  // namespace uniserver::sim
