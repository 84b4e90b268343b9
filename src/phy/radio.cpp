#include <phy/radio.hpp>

#include <cmath>

namespace movr::phy {

std::complex<double> array_response(const rf::PhasedArray& array,
                                    double local_angle) {
  const std::complex<double> f = array.field(local_angle);
  const double amplitude = std::sqrt(array.gain(local_angle, f).linear());
  const double mag = std::abs(f);
  if (mag < 1e-12) {
    return {amplitude, 0.0};  // deep null: floored gain, arbitrary phase
  }
  return amplitude * (f / mag);
}

std::complex<double> RadioNode::response_toward(double global_azimuth) const {
  return array_response(array_, to_local(global_azimuth));
}

}  // namespace movr::phy
