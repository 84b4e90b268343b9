#include <rf/phased_array.hpp>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include <geom/angle.hpp>

namespace movr::rf {

namespace {
constexpr double kTwoPi = movr::geom::kTwoPi;
}

PhasedArray::PhasedArray(const Config& config)
    : config_{config}, shifter_{config.phase_bits} {
  if (config_.elements < 1) {
    throw std::invalid_argument{"PhasedArray: need at least one element"};
  }
  if (config_.spacing_wavelengths <= 0.0) {
    throw std::invalid_argument{"PhasedArray: spacing must be positive"};
  }
  const double n = static_cast<double>(config_.elements);
  front_scale_ = std::sqrt(n * config_.element_gain.linear());
  back_scale_ = std::sqrt(
      n * (config_.element_gain - config_.front_to_back).linear());
  pattern_floor_ = std::sqrt(config_.scattering_floor.linear());
  // gain() floors |field|^2 at 1e-12 before taking its log, then at the
  // scattering floor.
  field_floor_power_ = std::max(config_.scattering_floor.linear(), 1e-12);
  field_floor_ = std::sqrt(field_floor_power_);
  weights_.resize(static_cast<std::size_t>(config_.elements));
  refresh_weights();
}

void PhasedArray::steer(double local_angle_rad) {
  const double wrapped = movr::geom::wrap_two_pi(local_angle_rad);
  if (std::bit_cast<std::uint64_t>(wrapped) ==
      std::bit_cast<std::uint64_t>(steering_)) {
    return;
  }
  steering_ = wrapped;
  refresh_weights();
}

void PhasedArray::refresh_weights() {
  // Progressive phase: element i is advanced so that contributions add in
  // phase toward the steering angle. k*d in radians per element:
  const double kd = kTwoPi * config_.spacing_wavelengths;
  const double progressive = -kd * std::cos(steering_);
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    weights_[i] = std::polar(
        1.0, shifter_.realize(progressive * static_cast<double>(i)));
  }
}

std::complex<double> PhasedArray::array_base(double local_angle_rad) const {
  const double kd = kTwoPi * config_.spacing_wavelengths;
  return std::polar(1.0, kd * std::cos(local_angle_rad));
}

std::complex<double> PhasedArray::horner(std::complex<double> z) const {
  // Element i adds w_i z^i with z = e^{j psi}, psi = k d cos(angle): the
  // sum is a polynomial in z, evaluated by Horner's rule from one sincos.
  std::complex<double> sum = weights_.back();
  for (std::size_t i = weights_.size() - 1; i-- > 0;) {
    sum = sum * z + weights_[i];
  }
  return sum / static_cast<double>(config_.elements);
}

std::complex<double> PhasedArray::field(double local_angle_rad) const {
  return horner(array_base(local_angle_rad));
}

std::complex<double> PhasedArray::field(const Look& look) const {
  return horner(look.z);
}

PhasedArray::Look PhasedArray::look(double local_angle_rad) const {
  return {array_base(local_angle_rad), response_scale(local_angle_rad)};
}

double PhasedArray::response_scale(double local_angle_rad) const {
  // element_pattern_db() in amplitude: the cos^exponent power pattern is
  // sin(a)^(exponent / 2) in amplitude, floored the same way.
  const double s = std::sin(movr::geom::wrap_two_pi(local_angle_rad));
  if (s <= 0.0) {
    return back_scale_;
  }
  return front_scale_ *
         std::max(std::pow(s, 0.5 * config_.element_exponent), pattern_floor_);
}

bool PhasedArray::shares_look(const PhasedArray& other) const {
  const Config& a = config_;
  const Config& b = other.config_;
  return a.elements == b.elements &&
         a.spacing_wavelengths == b.spacing_wavelengths &&
         a.element_gain == b.element_gain &&
         a.element_exponent == b.element_exponent &&
         a.front_to_back == b.front_to_back &&
         a.scattering_floor == b.scattering_floor;
}

std::complex<double> PhasedArray::response(std::complex<double> field_at_angle,
                                           double scale) const {
  const double power = std::norm(field_at_angle);
  if (power >= field_floor_power_) {
    return scale * field_at_angle;
  }
  const double floored = scale * field_floor_;
  if (power < 1e-24) {
    return {floored, 0.0};  // deep null: floored gain, arbitrary phase
  }
  return (floored / std::sqrt(power)) * field_at_angle;
}

double PhasedArray::element_pattern_db(double local_angle_rad) const {
  const double a = movr::geom::wrap_two_pi(local_angle_rad);
  const double s = std::sin(a);
  if (s <= 0.0) {
    // Behind the ground plane: flat back lobe.
    return config_.element_gain.value() - config_.front_to_back.value();
  }
  // Angle from broadside has cosine == sin(local angle).
  const double pattern_db = 10.0 * config_.element_exponent * std::log10(s);
  // A single patch never nulls perfectly toward the endfire directions.
  const double floored =
      std::max(pattern_db, config_.scattering_floor.value());
  return config_.element_gain.value() + floored;
}

Decibels PhasedArray::gain(double local_angle_rad) const {
  return gain(local_angle_rad, field(local_angle_rad));
}

Decibels PhasedArray::gain(double local_angle_rad,
                           std::complex<double> field_at_angle) const {
  const double af_power = std::norm(field_at_angle);
  const double af_db =
      10.0 * std::log10(std::max(af_power, 1e-12));
  const double af_floored = std::max(af_db, config_.scattering_floor.value());
  const double array_db =
      10.0 * std::log10(static_cast<double>(config_.elements));
  return Decibels{array_db + af_floored + element_pattern_db(local_angle_rad)};
}

Decibels PhasedArray::peak_gain() const {
  const double array_db =
      10.0 * std::log10(static_cast<double>(config_.elements));
  return Decibels{array_db + config_.element_gain.value()};
}

double PhasedArray::beamwidth_3db() const {
  return 0.886 / (static_cast<double>(config_.elements) *
                  config_.spacing_wavelengths);
}

}  // namespace movr::rf
