#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>

#include <hw/current_sensor.hpp>
#include <hw/dac.hpp>

namespace movr::hw {
namespace {

TEST(Dac, EightBitRange) {
  const Dac dac;
  EXPECT_EQ(dac.max_code(), 255u);
  EXPECT_DOUBLE_EQ(dac.output(0), 0.0);
  EXPECT_DOUBLE_EQ(dac.output(255), 1.0);
  EXPECT_DOUBLE_EQ(dac.output(9999), 1.0);  // clamps
}

TEST(Dac, MonotoneOutput) {
  const Dac dac;
  double prev = -1.0;
  for (std::uint32_t code = 0; code <= 255; ++code) {
    const double v = dac.output(code);
    EXPECT_GT(v, prev);
    prev = v;
  }
}

TEST(Dac, CodeForRoundTrip) {
  const Dac dac;
  for (std::uint32_t code = 0; code <= 255; code += 5) {
    EXPECT_EQ(dac.code_for(dac.output(code)), code);
  }
}

TEST(Dac, QuantizeErrorBounded) {
  const Dac dac;
  const double lsb = 1.0 / 255.0;
  for (double v = 0.0; v <= 1.0; v += 0.003) {
    EXPECT_NEAR(dac.quantize(v), v, lsb / 2.0 + 1e-12);
  }
}

TEST(Dac, CodeForClampsOutOfRange) {
  const Dac dac;
  EXPECT_EQ(dac.code_for(-5.0), 0u);
  EXPECT_EQ(dac.code_for(5.0), 255u);
}

TEST(Dac, RejectsBadConfig) {
  EXPECT_THROW(Dac(Dac::Config{0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Dac(Dac::Config{32, 1.0}), std::invalid_argument);
  EXPECT_THROW(Dac(Dac::Config{8, -1.0}), std::invalid_argument);
}

TEST(Dac, CustomFullScale) {
  const Dac dac{Dac::Config{8, 3.3}};
  EXPECT_DOUBLE_EQ(dac.output(255), 3.3);
  EXPECT_NEAR(dac.output(128), 3.3 * 128.0 / 255.0, 1e-12);
}

TEST(CurrentSensor, NoiselessConfigIsExact) {
  CurrentSensor::Config config;
  config.noise_sigma_a = 0.0;
  config.quantization_a = 0.0;
  const CurrentSensor sensor{config};
  std::mt19937_64 rng{1};
  EXPECT_DOUBLE_EQ(sensor.read_averaged(0.42, 1, rng), 0.42);
}

TEST(CurrentSensor, RejectsBadConfig) {
  for (const double full_scale :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    CurrentSensor::Config config;
    config.full_scale_a = full_scale;
    EXPECT_THROW(CurrentSensor{config}, std::invalid_argument) << full_scale;
  }
}

TEST(CurrentSensor, QuantizesToLsb) {
  CurrentSensor::Config config;
  config.noise_sigma_a = 0.0;
  config.quantization_a = 0.001;
  const CurrentSensor sensor{config};
  std::mt19937_64 rng{1};
  EXPECT_DOUBLE_EQ(sensor.read_averaged(0.35042, 1, rng), 0.350);
  EXPECT_DOUBLE_EQ(sensor.read_averaged(0.35062, 1, rng), 0.351);
}

TEST(CurrentSensor, ClampsToFullScale) {
  const CurrentSensor sensor;
  std::mt19937_64 rng{1};
  EXPECT_LE(sensor.read_averaged(100.0, 1, rng), sensor.config().full_scale_a);
  EXPECT_GE(sensor.read_averaged(-5.0, 1, rng), 0.0);
}

TEST(CurrentSensor, AveragingReducesNoise) {
  const CurrentSensor sensor;
  std::mt19937_64 rng{7};
  double sq1 = 0.0;
  double sq16 = 0.0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const double e1 = sensor.read_averaged(0.4, 1, rng) - 0.4;
    const double e16 = sensor.read_averaged(0.4, 16, rng) - 0.4;
    sq1 += e1 * e1;
    sq16 += e16 * e16;
  }
  EXPECT_GT(sq1 / sq16, 5.0);
}

TEST(CurrentSensor, AveragedReadingDrawsVariatePairs) {
  // One reading's conversions take their noise from one distribution, as
  // consecutive variates of it. A distribution per conversion would throw
  // away the second variate of every pair and leave the engine elsewhere.
  const CurrentSensor sensor;
  const CurrentSensor::Config& config = sensor.config();
  std::mt19937_64 rng{5};
  std::mt19937_64 reference_rng{5};
  std::normal_distribution<double> noise{0.0, config.noise_sigma_a};
  double sum = 0.0;
  for (int i = 0; i < 8; ++i) {
    const double reading =
        std::clamp(0.4 + noise(reference_rng), 0.0, config.full_scale_a);
    sum += std::round(reading / config.quantization_a) * config.quantization_a;
  }
  EXPECT_EQ(sensor.read_averaged(0.4, 8, rng), sum / 8);
  EXPECT_TRUE(rng == reference_rng);
}

TEST(CurrentSensor, AverageUnbiased) {
  const CurrentSensor sensor;
  std::mt19937_64 rng{9};
  double sum = 0.0;
  const int n = 3000;
  for (int i = 0; i < n; ++i) {
    sum += sensor.read_averaged(0.35, 4, rng);
  }
  EXPECT_NEAR(sum / n, 0.35, 0.001);
}

}  // namespace
}  // namespace movr::hw
