#include <hw/current_sensor.hpp>

#include <algorithm>
#include <cmath>

namespace movr::hw {

double CurrentSensor::read(double true_current_a, std::mt19937_64& rng) const {
  // A noiseless sensor draws nothing: std::normal_distribution needs a
  // positive sigma.
  const double noise =
      config_.noise_sigma_a > 0.0
          ? std::normal_distribution<double>{0.0, config_.noise_sigma_a}(rng)
          : 0.0;
  double reading = true_current_a + bias_a_ + noise;
  reading = std::clamp(reading, 0.0, config_.full_scale_a);
  if (config_.quantization_a > 0.0) {
    reading = std::round(reading / config_.quantization_a) * config_.quantization_a;
  }
  return reading;
}

double CurrentSensor::read_averaged(double true_current_a, int samples,
                                    std::mt19937_64& rng) const {
  const int n = std::max(samples, 1);
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    sum += read(true_current_a, rng);
  }
  return sum / n;
}

}  // namespace movr::hw
