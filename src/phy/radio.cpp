#include <phy/radio.hpp>

namespace movr::phy {

std::complex<double> array_response(const rf::PhasedArray& array,
                                    double local_angle) {
  return array.response(array.field(local_angle),
                        array.response_scale(local_angle));
}

std::complex<double> array_response(const rf::PhasedArray& array,
                                    const rf::PhasedArray::Look& look) {
  return array.response(array.field(look), look.scale);
}

std::complex<double> RadioNode::response_toward(double global_azimuth) const {
  return array_response(array_, to_local(global_azimuth));
}

}  // namespace movr::phy
