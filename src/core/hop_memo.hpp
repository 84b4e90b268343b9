// The last evaluation of one radio hop, kept so that a repeated query with
// unchanged inputs costs a key compare instead of a path sum.
//
// MoVR's control loop re-reads the same link budget between world events:
// the headset's SNR every frame, the reflector's input power on every
// agent probe and log snapshot. Scene memoises three hops with this type:
// the direct AP -> headset hop (in Scene), and the AP -> reflector and
// reflector -> headset hops (in the MovrReflector, so reflectors that
// belong to no scene are covered too).
#pragma once

#include <cstdint>

#include <rf/units.hpp>

namespace movr::core {

class HopMemo {
 public:
  /// Everything a hop's received power reads that can change between two
  /// queries, as raw bits: a hit requires each to be bit-identical.
  ///  - The path set, as (ChannelOracle::generation(), view address): the
  ///    cache keeps every view paths_view returns until its next drop, and
  ///    every drop draws a new generation, so the pair never names two
  ///    path sets. The address alone would: freed sets' addresses are
  ///    reused.
  ///  - The transmitter's power, orientation and steering.
  ///  - The receiver's orientation and steering.
  /// Not in the key: the arrays' configs (fixed for an array's lifetime,
  /// rf::PhasedArray::config) and the scene's LinkConfig and side losses
  /// (fixed for the oracle's lifetime, whose generations are unique).
  struct Key {
    std::uint64_t generation{0};  // never drawn: a fresh memo misses
    const void* paths{nullptr};
    std::uint64_t tx_power{0};
    std::uint64_t tx_orientation{0};
    std::uint64_t tx_steering{0};
    std::uint64_t rx_orientation{0};
    std::uint64_t rx_steering{0};
    bool operator==(const Key&) const = default;
  };

  /// The power stored for `key`, or `compute()`'s, stored for next time.
  template <typename Compute>
  rf::DbmPower get(const Key& key, Compute&& compute) {
    if (key != key_) {
      power_ = compute();
      key_ = key;
    }
    return power_;
  }

 private:
  Key key_{};
  rf::DbmPower power_{};
};

}  // namespace movr::core
