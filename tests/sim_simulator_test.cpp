#include <sim/simulator.hpp>

#include <functional>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace movr::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator s;
  EXPECT_EQ(s.now(), TimePoint{0});
}

TEST(Simulator, AfterAdvancesClock) {
  Simulator s;
  TimePoint seen{};
  s.after(Duration{100}, [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, TimePoint{100});
  EXPECT_EQ(s.now(), TimePoint{100});
}

TEST(Simulator, NestedSchedulingAccumulates) {
  Simulator s;
  std::vector<std::int64_t> times;
  s.after(Duration{10}, [&] {
    times.push_back(s.now().count());
    s.after(Duration{5}, [&] { times.push_back(s.now().count()); });
  });
  s.run();
  EXPECT_EQ(times, (std::vector<std::int64_t>{10, 15}));
}

TEST(Simulator, NegativeDelayThrows) {
  Simulator s;
  EXPECT_THROW(s.after(Duration{-1}, [] {}), std::invalid_argument);
}

TEST(Simulator, AtInThePastThrows) {
  Simulator s;
  s.after(Duration{10}, [] {});
  s.run();
  EXPECT_THROW(s.at(TimePoint{5}, [] {}), std::invalid_argument);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator s;
  int fired = 0;
  s.after(Duration{10}, [&] { ++fired; });
  s.after(Duration{20}, [&] { ++fired; });
  s.after(Duration{30}, [&] { ++fired; });
  s.run_until(TimePoint{20});
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), TimePoint{20});
  EXPECT_EQ(s.pending_events(), 1u);
  s.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilAdvancesClockEvenWhenIdle) {
  Simulator s;
  s.run_until(TimePoint{1000});
  EXPECT_EQ(s.now(), TimePoint{1000});
}

TEST(Simulator, StepRunsOneEvent) {
  Simulator s;
  int fired = 0;
  s.after(Duration{1}, [&] { ++fired; });
  s.after(Duration{2}, [&] { ++fired; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelPending) {
  Simulator s;
  bool fired = false;
  const auto id = s.after(Duration{5}, [&] { fired = true; });
  s.cancel(id);
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, SelfCancellingHandlerKeepsLaterEvents) {
  // SearchPhase::finish cancels its watchdog from inside the watchdog's own
  // handler. That cancel must not cost a later event its turn.
  {
    Simulator s;
    EventQueue::EventId self = 0;
    bool later_fired = false;
    self = s.after(Duration{1}, [&] { s.cancel(self); });
    s.after(Duration{2}, [&] { later_fired = true; });
    s.run();
    EXPECT_TRUE(later_fired);
    EXPECT_EQ(s.now(), TimePoint{2});
    EXPECT_EQ(s.pending_events(), 0u);
  }
  {
    Simulator s;
    EventQueue::EventId self = 0;
    int later_fired = 0;
    self = s.after(Duration{1}, [&] { s.cancel(self); });
    for (int i = 2; i <= 5; ++i) {
      s.after(Duration{i}, [&] { ++later_fired; });
    }
    s.run_until(TimePoint{10});
    EXPECT_EQ(later_fired, 4);
    EXPECT_EQ(s.pending_events(), 0u);
  }
}

TEST(Simulator, SafetyValveTripsOnEventCount) {
  Simulator s;
  s.set_safety_valve({.max_events = 100, .max_time = Duration::zero()});
  // A self-rescheduling event: without the valve this never drains.
  std::function<void()> reschedule = [&] { s.after(Duration{1}, reschedule); };
  s.after(Duration{1}, reschedule);
  EXPECT_THROW(s.run(), std::runtime_error);
  EXPECT_EQ(s.events_executed(), 100u);
}

TEST(Simulator, SafetyValveTripsOnSimulatedTime) {
  Simulator s;
  s.set_safety_valve({.max_events = 0, .max_time = Duration{1'000}});
  std::function<void()> reschedule = [&] { s.after(Duration{100}, reschedule); };
  s.after(Duration{100}, reschedule);
  EXPECT_THROW(s.run(), std::runtime_error);
  EXPECT_LE(s.now(), TimePoint{1'000});
}

TEST(Simulator, SafetyValveOffByDefault) {
  Simulator s;
  EXPECT_EQ(s.safety_valve().max_events, 0u);
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    s.after(Duration{i}, [&] { ++fired; });
  }
  s.run();
  EXPECT_EQ(fired, 1000);
}

TEST(Simulator, DeterministicReplay) {
  // The same schedule produces the same execution trace, twice.
  const auto trace = [] {
    Simulator s;
    std::vector<int> order;
    for (int i = 0; i < 20; ++i) {
      s.after(Duration{(i * 7) % 13}, [&order, i] { order.push_back(i); });
    }
    s.run();
    return order;
  };
  EXPECT_EQ(trace(), trace());
}

}  // namespace
}  // namespace movr::sim
