#include <sim/event_queue.hpp>

#include <iterator>
#include <random>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace movr::sim {
namespace {

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(TimePoint{30}, [&] { order.push_back(3); });
  q.schedule(TimePoint{10}, [&] { order.push_back(1); });
  q.schedule(TimePoint{20}, [&] { order.push_back(2); });
  while (!q.empty()) {
    q.run_next();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(TimePoint{5}, [&] { order.push_back(1); });
  q.schedule(TimePoint{5}, [&] { order.push_back(2); });
  q.schedule(TimePoint{5}, [&] { order.push_back(3); });
  while (!q.empty()) {
    q.run_next();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, RunNextReturnsTimestamp) {
  EventQueue q;
  q.schedule(TimePoint{42}, [] {});
  EXPECT_EQ(q.next_time(), TimePoint{42});
  EXPECT_EQ(q.run_next(), TimePoint{42});
}

TEST(EventQueue, HandlerMayScheduleMore) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(TimePoint{1}, [&] {
    order.push_back(1);
    q.schedule(TimePoint{2}, [&] { order.push_back(2); });
  });
  while (!q.empty()) {
    q.run_next();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const auto id = q.schedule(TimePoint{1}, [&] { fired = true; });
  q.schedule(TimePoint{2}, [] {});
  q.cancel(id);
  EXPECT_EQ(q.pending(), 1u);
  while (!q.empty()) {
    q.run_next();
  }
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelUnknownIdIsNoop) {
  EventQueue q;
  q.schedule(TimePoint{1}, [] {});
  q.cancel(9999);
  q.cancel(0);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, DoubleCancelCountsOnce) {
  EventQueue q;
  const auto id = q.schedule(TimePoint{1}, [] {});
  q.schedule(TimePoint{2}, [] {});
  q.cancel(id);
  q.cancel(id);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_FALSE(q.empty());
}

TEST(EventQueue, CancelAfterFiringIsNoop) {
  // A fired event has nothing left to cancel: the live count and the
  // later event must not change.
  EventQueue q;
  bool b_fired = false;
  const auto a = q.schedule(TimePoint{1}, [] {});
  q.schedule(TimePoint{2}, [&] { b_fired = true; });
  q.run_next();
  q.cancel(a);
  EXPECT_EQ(q.pending(), 1u);
  ASSERT_FALSE(q.empty());
  EXPECT_EQ(q.run_next(), TimePoint{2});
  EXPECT_TRUE(b_fired);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EmptyAfterCancellingEverything) {
  EventQueue q;
  const auto a = q.schedule(TimePoint{1}, [] {});
  const auto b = q.schedule(TimePoint{2}, [] {});
  q.cancel(a);
  q.cancel(b);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RunNextOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.run_next(), std::logic_error);
  EXPECT_THROW(q.next_time(), std::logic_error);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const auto id = q.schedule(TimePoint{1}, [] {});
  q.schedule(TimePoint{7}, [] {});
  q.cancel(id);
  EXPECT_EQ(q.next_time(), TimePoint{7});
}

/// The queue's contract in its plainest form: the (when, id) pairs still
/// queued, in order, and the ids cancelled while queued.
class ReferenceQueue {
 public:
  using EventId = EventQueue::EventId;

  EventId schedule(TimePoint when) {
    queued_.insert({when, next_id_});
    return next_id_++;
  }
  void cancel(EventId id) {
    for (const auto& entry : queued_) {
      if (entry.second == id) {
        cancelled_.insert(id);
        return;
      }
    }
  }
  std::size_t pending() const { return queued_.size() - cancelled_.size(); }
  bool empty() const { return pending() == 0; }
  /// The earliest live (when, id). Precondition: !empty().
  std::pair<TimePoint, EventId> front() {
    while (cancelled_.erase(queued_.begin()->second) == 1) {
      queued_.erase(queued_.begin());
    }
    return *queued_.begin();
  }
  std::pair<TimePoint, EventId> pop_front() {
    const auto entry = front();
    queued_.erase(queued_.begin());
    return entry;
  }
  /// An id no schedule has returned yet.
  EventId unknown_id() const { return next_id_ + 7; }
  /// Queued entries, cancelled ones included.
  std::size_t queued() const { return queued_.size(); }
  /// The id of queued entry `i` in (when, id) order. Precondition:
  /// i < queued().
  EventId queued_id(std::size_t i) const {
    return std::next(queued_.begin(), static_cast<std::ptrdiff_t>(i))->second;
  }

 private:
  std::set<std::pair<TimePoint, EventId>> queued_;
  std::set<EventId> cancelled_;
  EventId next_id_{1};
};

/// Drives an EventQueue and the reference through the same seeded mix of
/// schedules, cancels and runs, comparing them after every operation.
/// Handlers act too: each records its id, then may schedule and cancel
/// events, its own id included.
class Differential {
 public:
  explicit Differential(std::uint64_t seed) : rng_{seed} {}

  void run(int operations) {
    for (int op = 0; op < operations && !::testing::Test::HasFailure(); ++op) {
      if (!model_.empty() && coin(0.4)) {
        run_one();
      } else {
        act();
      }
      check();
    }
    while (!model_.empty() && !::testing::Test::HasFailure()) {
      run_one();
      check();
    }
    EXPECT_TRUE(queue_.empty());
    EXPECT_THROW(queue_.run_next(), std::logic_error);
  }

  std::size_t fired() const { return fired_.size(); }

 private:
  bool coin(double p) { return std::bernoulli_distribution{p}(rng_); }
  /// Uniform in [0, n). Precondition: n > 0.
  std::size_t draw(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>{0, n - 1}(rng_);
  }

  void schedule() {
    // A 4 ns window makes equal timestamps common.
    const TimePoint when = now_ + TimePoint{static_cast<int>(draw(4))};
    const EventQueue::EventId expected = model_.schedule(when);
    const EventQueue::EventId id = queue_.schedule(when, [this, expected] {
      fired_.push_back(expected);
      act();
    });
    EXPECT_EQ(id, expected);
  }

  void cancel(EventQueue::EventId id) {
    model_.cancel(id);
    queue_.cancel(id);
  }

  /// One random action. Each call schedules 0.6 events on average, so the
  /// cascade of handlers acting in turn dies out.
  void act() {
    switch (draw(10)) {
      case 0:
      case 1:
      case 2:
      case 3:
        schedule();
        break;
      case 4:
        schedule();
        schedule();
        break;
      case 5:
        if (model_.queued() > 0) {
          cancel(model_.queued_id(draw(model_.queued())));
        }
        break;
      case 6:
        if (!fired_.empty()) {
          // Inside a handler the newest fired id is the running event's own.
          cancel(coin(0.5) ? fired_.back() : fired_[draw(fired_.size())]);
        }
        break;
      case 7:
        cancel(coin(0.5) ? 0 : model_.unknown_id());
        break;
      case 8:
        if (model_.queued() > 0) {
          const EventQueue::EventId id =
              model_.queued_id(draw(model_.queued()));
          cancel(id);
          cancel(id);
        }
        break;
      default:
        break;
    }
  }

  void run_one() {
    const auto [when, id] = model_.pop_front();
    now_ = when;
    const std::size_t before = fired_.size();
    EXPECT_EQ(queue_.run_next(), when);
    ASSERT_GT(fired_.size(), before);
    EXPECT_EQ(fired_[before], id);
  }

  void check() {
    ASSERT_EQ(queue_.pending(), model_.pending());
    ASSERT_EQ(queue_.empty(), model_.empty());
    if (!model_.empty()) {
      ASSERT_EQ(queue_.next_time(), model_.front().first);
    }
  }

  std::mt19937_64 rng_;
  EventQueue queue_;
  ReferenceQueue model_;
  std::vector<EventQueue::EventId> fired_;
  TimePoint now_{0};
};

TEST(EventQueue, MatchesReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    Differential run{seed};
    run.run(400);
    EXPECT_GT(run.fired(), 0u);
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
}

}  // namespace
}  // namespace movr::sim
