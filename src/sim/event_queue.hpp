// The discrete-event core: a time-ordered queue of callbacks.
//
// Ties are broken by insertion order so runs are deterministic — identical
// seeds replay identical event sequences, which the replay property tests
// assert.
//
// Handlers live in a pool of reused slots; the binary heap orders 24-byte
// keys that name a slot. A handler moves into its slot when it is scheduled
// and out of it when it runs, so heap maintenance never touches a handler
// (DESIGN.md §11.3).
#pragma once

#include <cstdint>
#include <vector>

#include <sim/inplace_function.hpp>
#include <sim/time.hpp>

namespace movr::sim {

class EventQueue {
 public:
  /// Handlers are stored inline (no heap allocation per event). Captures
  /// must fit the fixed buffer — a compile error here means a lambda grew
  /// past the budget; shrink the capture or box it explicitly.
  using Handler = InplaceFunction<void(), 152>;

  /// Identifies a scheduled event so it can be cancelled.
  using EventId = std::uint64_t;

  /// Schedules `handler` to run at absolute time `when`.
  EventId schedule(TimePoint when, Handler handler);

  /// Cancels a pending event. Cancelling an already-fired, running or
  /// unknown id is a no-op (the common race: an SNR-recovered event
  /// cancelling a timeout).
  void cancel(EventId id);

  bool empty() const { return live_count_ == 0; }
  std::size_t pending() const { return live_count_; }

  /// Time of the earliest pending event. Precondition: !empty().
  TimePoint next_time() const;

  /// Pops and runs the earliest event; returns its timestamp.
  /// Precondition: !empty().
  TimePoint run_next();

 private:
  /// Ids grow with every schedule, so (when, id) is insertion order among
  /// equal timestamps.
  struct Key {
    TimePoint when;
    EventId id;
    std::uint32_t slot;
    bool cancelled;
  };
  static_assert(sizeof(Key) == 24, "the cancelled flag must fit the padding");

  /// Orders the heap so its front is the earliest key.
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.id > b.id;
    }
  };

  /// Pops the front key and returns its slot to the free list, yielding the
  /// handler that was stored there.
  Handler pop_front();

  /// Pops cancelled keys off the front, so the front is always live.
  void drop_cancelled();

  std::vector<Key> heap_;
  std::vector<Handler> slots_;
  std::vector<std::uint32_t> free_slots_;
  EventId next_id_{1};
  std::size_t live_count_{0};
};

}  // namespace movr::sim
