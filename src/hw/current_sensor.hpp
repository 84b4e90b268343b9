// DC current sensor (TI INA169 + ADC in the prototype).
//
// The gain controller reads the amplifier's supply current through this
// sensor: a noisy, quantised view — the knee-detection threshold has to
// clear the noise floor modelled here.
#pragma once

#include <random>

namespace movr::hw {

class CurrentSensor {
 public:
  struct Config {
    double noise_sigma_a{0.002};    // 2 mA rms sense noise
    double quantization_a{0.001};   // ADC step, 1 mA
    double full_scale_a{2.0};
  };

  CurrentSensor() : CurrentSensor(Config{}) {}
  /// Throws std::invalid_argument unless `full_scale_a` is finite and > 0.
  explicit CurrentSensor(const Config& config);

  const Config& config() const { return config_; }

  /// Averaged reading of `true_current_a` amps over `samples` ADC
  /// conversions (at least one; the controller averages a few per gain
  /// step to suppress noise). The conversions' noise variates come from
  /// one normal distribution per call, so libstdc++'s polar method serves
  /// two conversions from each pair it generates.
  double read_averaged(double true_current_a, int samples,
                       std::mt19937_64& rng) const;

  /// Additive measurement bias (thermal/aging drift, fault-injected): every
  /// reading is offset by this before quantisation. The gain controller
  /// cannot see it — that is the point.
  void set_bias(double bias_a) { bias_a_ = bias_a; }

 private:
  Config config_;
  double bias_a_{0.0};
};

}  // namespace movr::hw
