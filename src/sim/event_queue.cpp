#include <sim/event_queue.hpp>

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace movr::sim {

EventQueue::EventId EventQueue::schedule(TimePoint when, Handler handler) {
  std::uint32_t slot = static_cast<std::uint32_t>(slots_.size());
  if (free_slots_.empty()) {
    slots_.push_back(std::move(handler));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(handler);
  }
  const EventId id = next_id_++;
  heap_.push_back(Key{when, id, slot, false});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_count_;
  return id;
}

void EventQueue::cancel(EventId id) {
  // Cancels are rare next to events (DESIGN.md §11.3 has the counts), so a
  // scan of the pending keys beats keeping an index up to date on every
  // event. A fired or running event has no key left, so cancelling it
  // changes nothing.
  for (Key& key : heap_) {
    if (key.id == id) {
      if (!key.cancelled) {
        key.cancelled = true;
        --live_count_;
        drop_cancelled();
      }
      return;
    }
  }
}

EventQueue::Handler EventQueue::pop_front() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const std::uint32_t slot = heap_.back().slot;
  heap_.pop_back();
  free_slots_.push_back(slot);
  return std::move(slots_[slot]);
}

void EventQueue::drop_cancelled() {
  while (!heap_.empty() && heap_.front().cancelled) {
    pop_front();
  }
}

TimePoint EventQueue::next_time() const {
  if (heap_.empty()) {
    throw std::logic_error{"EventQueue::next_time on empty queue"};
  }
  return heap_.front().when;
}

TimePoint EventQueue::run_next() {
  if (heap_.empty()) {
    throw std::logic_error{"EventQueue::run_next on empty queue"};
  }
  const TimePoint when = heap_.front().when;
  // Move the handler out of its slot before running it: the handler may
  // schedule new events, which may reuse the slot or grow the pool.
  const Handler handler = pop_front();
  --live_count_;
  drop_cancelled();
  handler();
  return when;
}

}  // namespace movr::sim
