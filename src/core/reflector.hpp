// The MoVR reflector device: the paper's contribution, as deployable unit.
//
// A reflector is an analog front end (two phased arrays joined by a VGA)
// stuck to a wall, plus an Arduino-class controller reachable over the
// Bluetooth control channel. It has NO transmit or receive chains: the
// control surface is exactly {rx beam angle, tx beam angle, gain DAC code,
// modulation on/off} and the only sensor is the amplifier's supply-current
// monitor. Everything the reflector "knows" about RF it must learn through
// the protocols in angle_search.hpp and gain_control.hpp.
#pragma once

#include <core/hop_memo.hpp>
#include <geom/angle.hpp>
#include <geom/vec2.hpp>
#include <hw/front_end.hpp>
#include <sim/control_channel.hpp>

namespace movr::core {

class Scene;

class MovrReflector {
 public:
  MovrReflector(geom::Vec2 position, double orientation_rad,
                hw::ReflectorFrontEnd::Config front_end_config = {});

  geom::Vec2 position() const { return position_; }
  /// Global azimuth of the arrays' boresight (pointing into the room).
  double orientation() const { return orientation_; }

  /// Global azimuth -> array-local angle (boresight = pi/2), and back.
  double to_local(double global_azimuth) const {
    return geom::wrap_two_pi(global_azimuth - orientation_ + geom::kPi / 2.0);
  }
  double to_global(double local_angle) const {
    return geom::wrap_pi(local_angle + orientation_ - geom::kPi / 2.0);
  }

  hw::ReflectorFrontEnd& front_end() { return front_end_; }
  const hw::ReflectorFrontEnd& front_end() const { return front_end_; }

  /// Control-plane dispatch: the message vocabulary the Arduino accepts.
  /// Topics: "rx_angle" (local radians), "tx_angle" (local radians),
  /// "both_angles" (sets rx == tx, used during angle search),
  /// "gain_code", "modulate" (1 -> on, 0 -> off, anything else rejected).
  /// Unknown topics are counted and ignored (robustness to version skew).
  void handle(const sim::ControlMessage& message);

  /// Name under which the reflector attaches to the control channel.
  const std::string& control_name() const { return control_name_; }
  void set_control_name(std::string name) { control_name_ = std::move(name); }

  std::uint64_t unknown_messages() const { return unknown_messages_; }
  /// Payloads rejected by firmware validation (non-finite or wildly
  /// out-of-range values, e.g. an undetectably corrupted gain command).
  std::uint64_t rejected_messages() const { return rejected_messages_; }

  /// True when `value` is acceptable as an angle command payload.
  static bool valid_angle(double value);

  /// Power loss + reboot: front-end registers wiped (beams, gain,
  /// modulation), calibration gone. The boot epoch increments so the AP
  /// side can detect the reboot as an epoch mismatch and schedule
  /// recalibration (see core::HealthMonitor).
  void power_cycle();
  std::uint32_t boot_epoch() const { return boot_epoch_; }

 private:
  geom::Vec2 position_;
  double orientation_;
  hw::ReflectorFrontEnd front_end_;
  std::string control_name_{"reflector"};
  std::uint64_t unknown_messages_{0};
  std::uint64_t rejected_messages_{0};
  std::uint32_t boot_epoch_{0};

  // Scene::reflector_input's hop (AP -> RX array) and via_snr's relay hop
  // (TX array -> headset), memoised here rather than in a Scene so that
  // they follow the reflector, which any scene may be asked about. Written
  // by const queries: like its scene, a reflector is used by one thread at
  // a time.
  friend class Scene;
  mutable HopMemo input_memo_;
  mutable HopMemo relay_memo_;
};

}  // namespace movr::core
