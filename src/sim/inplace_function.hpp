// A fixed-buffer std::function replacement for the event queue's handlers.
//
// Every event the simulator schedules used to pay one heap allocation for
// its std::function capture (the transport's per-MPDU lambdas carry a
// Packet plus coin parameters — well past the small-buffer optimisation).
// At 90 Hz with several events per tick that allocation churn IS the
// steady-state cost of the tick path, so the handler type stores its
// callable inline: construction from any callable that fits is
// allocation-free by construction, and callables that do not fit fail to
// compile (static_assert) instead of silently spilling to the heap.
//
// Semantics are the slice of std::function the event queue needs: movable,
// callable, empty-testable. It is move-only: the queue moves a handler into
// its slot when it is scheduled and out of it when it runs, and never
// copies one, so a stored callable need only be movable.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace movr::sim {

template <typename Signature, std::size_t Capacity = 120>
class InplaceFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InplaceFunction<R(Args...), Capacity> {
 public:
  InplaceFunction() = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<
                std::decay_t<F>, InplaceFunction>>>
  InplaceFunction(F&& f) {  // NOLINT(runtime/explicit): mirrors std::function
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= Capacity,
                  "callable too large for InplaceFunction buffer — shrink "
                  "the capture or raise Capacity");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "callable over-aligned for InplaceFunction buffer");
    ::new (static_cast<void*>(buffer_)) Fn(std::forward<F>(f));
    ops_ = &ops_for<Fn>;
  }

  InplaceFunction(InplaceFunction&& other) noexcept { move_from(other); }
  InplaceFunction& operator=(InplaceFunction&& other) noexcept {
    if (this != &other) {
      destroy();
      move_from(other);
    }
    return *this;
  }

  ~InplaceFunction() { destroy(); }

  explicit operator bool() const { return ops_ != nullptr; }

  R operator()(Args... args) const {
    return ops_->invoke(buffer_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*invoke)(const std::byte*, Args&&...);
    void (*move)(std::byte*, std::byte*);
    void (*destroy)(std::byte*);
  };

  template <typename Fn>
  static constexpr Ops ops_for{
      [](const std::byte* buf, Args&&... args) -> R {
        // Handlers are semantically mutable calls (std::function parity):
        // the stored callable may update captured state between firings.
        return (*const_cast<Fn*>(reinterpret_cast<const Fn*>(buf)))(
            std::forward<Args>(args)...);
      },
      [](std::byte* dst, std::byte* src) {
        ::new (static_cast<void*>(dst)) Fn(std::move(*reinterpret_cast<Fn*>(src)));
      },
      [](std::byte* buf) { reinterpret_cast<Fn*>(buf)->~Fn(); },
  };

  void move_from(InplaceFunction& other) noexcept {
    const Ops* ops = other.ops_;
    if (ops != nullptr) {
      ops->move(buffer_, other.buffer_);
      ops->destroy(other.buffer_);
    }
    ops_ = ops;
    other.ops_ = nullptr;
  }
  void destroy() {
    if (ops_ != nullptr) {
      ops_->destroy(buffer_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) mutable std::byte buffer_[Capacity];
  const Ops* ops_{nullptr};
};

}  // namespace movr::sim
