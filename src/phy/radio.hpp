// A radio node: a phased array at a position and mounting orientation.
//
// Frame conventions:
//   * global azimuths are radians CCW from the room's +x axis;
//   * the array's *local* angles follow movr::rf::PhasedArray (array along
//     local x, boresight at pi/2);
//   * `orientation` is the global azimuth of the array's boresight.
#pragma once

#include <complex>

#include <geom/angle.hpp>
#include <geom/vec2.hpp>
#include <rf/phased_array.hpp>
#include <rf/units.hpp>

namespace movr::phy {

/// Complex far-field factor of an array toward a *local* angle: amplitude
/// sqrt(linear gain), phase from the array response. The building block for
/// coherent multipath summation, shared by RadioNode and the reflector's
/// front-end arrays.
std::complex<double> array_response(const rf::PhasedArray& array,
                                    double local_angle);
/// The same response toward a precomputed Look (PhasedArray::look): equal,
/// bit for bit, to array_response toward the angle the Look was computed
/// for, on any array that shares_look() with the one that computed it.
std::complex<double> array_response(const rf::PhasedArray& array,
                                    const rf::PhasedArray::Look& look);

class RadioNode {
 public:
  RadioNode(geom::Vec2 position, double orientation_rad,
            rf::PhasedArray::Config array_config = {},
            rf::DbmPower tx_power = rf::DbmPower{0.0})
      : position_{position},
        orientation_{orientation_rad},
        array_{array_config},
        tx_power_{tx_power} {}

  geom::Vec2 position() const { return position_; }
  void set_position(geom::Vec2 p) { position_ = p; }

  double orientation() const { return orientation_; }
  void set_orientation(double radians) { orientation_ = radians; }

  rf::DbmPower tx_power() const { return tx_power_; }
  void set_tx_power(rf::DbmPower p) { tx_power_ = p; }

  const rf::PhasedArray& array() const { return array_; }
  rf::PhasedArray& array() { return array_; }

  /// Converts a global azimuth into the array's local angle.
  double to_local(double global_azimuth) const {
    return geom::wrap_two_pi(global_azimuth - orientation_ + geom::kPi / 2.0);
  }
  double to_global(double local_angle) const {
    return geom::wrap_pi(local_angle + orientation_ - geom::kPi / 2.0);
  }

  /// Steers the beam toward a global azimuth.
  void steer_global(double global_azimuth) {
    array_.steer(to_local(global_azimuth));
  }
  /// Steers the beam at a point in the room.
  void steer_toward(geom::Vec2 target) {
    steer_global((target - position_).heading());
  }

  /// Re-mounts the boresight toward `target` and steers to it. Models a
  /// node with array faces covering the full azimuth (e.g. a headset with
  /// antennas around the visor): the face toward the peer is selected, so
  /// no peer is ever behind the ground plane. Blockage still applies — an
  /// obstacle in the way attenuates regardless of which face listens.
  void face_toward(geom::Vec2 target) {
    set_orientation((target - position_).heading());
    array_.steer(geom::kPi / 2.0);
  }
  /// Current steering as a global azimuth.
  double steering_global() const { return to_global(array_.steering()); }

  /// Realised gain toward a global azimuth with the current steering.
  rf::Decibels gain_toward(double global_azimuth) const {
    return array_.gain(to_local(global_azimuth));
  }

  /// Complex far-field factor toward a global azimuth: amplitude is
  /// sqrt(linear gain), phase from the array response. Used for coherent
  /// multipath summation.
  std::complex<double> response_toward(double global_azimuth) const;

 private:
  geom::Vec2 position_;
  double orientation_;
  rf::PhasedArray array_;
  rf::DbmPower tx_power_;
};

}  // namespace movr::phy
