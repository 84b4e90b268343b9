#include <hw/current_sensor.hpp>

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace movr::hw {

CurrentSensor::CurrentSensor(const Config& config) : config_{config} {
  if (!std::isfinite(config_.full_scale_a) || config_.full_scale_a <= 0.0) {
    throw std::invalid_argument{
        "CurrentSensor: full_scale_a must be finite and > 0"};
  }
}

double CurrentSensor::read_averaged(double true_current_a, int samples,
                                    std::mt19937_64& rng) const {
  const int n = std::max(samples, 1);
  // A noiseless sensor draws nothing: std::normal_distribution needs a
  // positive sigma. Otherwise one distribution serves every conversion, so
  // the second variate of each polar-method pair is used, not discarded.
  const bool noisy = config_.noise_sigma_a > 0.0;
  std::normal_distribution<double> noise{0.0,
                                         noisy ? config_.noise_sigma_a : 1.0};
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    double reading = true_current_a + bias_a_ + (noisy ? noise(rng) : 0.0);
    reading = std::clamp(reading, 0.0, config_.full_scale_a);
    if (config_.quantization_a > 0.0) {
      reading =
          std::round(reading / config_.quantization_a) * config_.quantization_a;
    }
    sum += reading;
  }
  return sum / n;
}

}  // namespace movr::hw
