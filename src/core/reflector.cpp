#include <core/reflector.hpp>

#include <cmath>

namespace movr::core {

MovrReflector::MovrReflector(geom::Vec2 position, double orientation_rad,
                             hw::ReflectorFrontEnd::Config front_end_config)
    : position_{position},
      orientation_{orientation_rad},
      front_end_{front_end_config} {}

void MovrReflector::power_cycle() {
  front_end_.power_cycle();
  ++boot_epoch_;
}

bool MovrReflector::valid_angle(double value) {
  // An angle command must be a finite number of radians. The bound is
  // deliberately loose (steering wraps), but a corrupted payload blown out
  // to e.g. 1e30 is firmware-rejected rather than wrapped into a beam the
  // AP never asked for.
  return std::isfinite(value) && std::abs(value) < 64.0;
}

void MovrReflector::handle(const sim::ControlMessage& message) {
  // Every payload is validated before it touches a register: the control
  // link can deliver undetectably corrupted values (see
  // sim::ControlChannel), and a garbled command must degrade into a
  // counted reject, never UB or a wild register write.
  if (message.topic == "rx_angle") {
    if (!valid_angle(message.value)) {
      ++rejected_messages_;
      return;
    }
    front_end_.steer_rx(message.value);
  } else if (message.topic == "tx_angle") {
    if (!valid_angle(message.value)) {
      ++rejected_messages_;
      return;
    }
    front_end_.steer_tx(message.value);
  } else if (message.topic == "both_angles") {
    if (!valid_angle(message.value)) {
      ++rejected_messages_;
      return;
    }
    front_end_.steer_rx(message.value);
    front_end_.steer_tx(message.value);
  } else if (message.topic == "gain_code") {
    if (!std::isfinite(message.value) || message.value < 0.0 ||
        message.value > 1e9) {
      ++rejected_messages_;
      return;
    }
    front_end_.set_gain_code(
        static_cast<std::uint32_t>(std::round(message.value)));
  } else if (message.topic == "modulate") {
    // Only the two commands the AP sends: a bit-flipped 0.0 is a nonzero
    // finite double, and must not switch modulation on.
    if (message.value != 0.0 && message.value != 1.0) {
      ++rejected_messages_;
      return;
    }
    front_end_.set_modulating(message.value == 1.0);
  } else {
    ++unknown_messages_;
  }
}

}  // namespace movr::core
