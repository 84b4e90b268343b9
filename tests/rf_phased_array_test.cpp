#include <rf/phased_array.hpp>

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include <geom/angle.hpp>
#include <rf/phase_shifter.hpp>

namespace movr::rf {
namespace {

using movr::geom::deg_to_rad;
using movr::geom::kPi;

TEST(PhaseShifter, AnalogPassesThrough) {
  const PhaseShifter analog{0};
  EXPECT_NEAR(analog.realize(1.234), 1.234, 1e-12);
}

TEST(PhaseShifter, WrapsInput) {
  const PhaseShifter analog{0};
  EXPECT_NEAR(analog.realize(-0.5), movr::geom::kTwoPi - 0.5, 1e-12);
}

TEST(PhaseShifter, QuantizesToLevels) {
  const PhaseShifter two_bit{2};  // steps of pi/2
  EXPECT_NEAR(two_bit.realize(0.1), 0.0, 1e-12);
  EXPECT_NEAR(two_bit.realize(0.8), kPi / 2.0, 1e-12);
}

TEST(PhaseShifter, QuantizationErrorBounded) {
  const PhaseShifter four_bit{4};
  const double step = movr::geom::kTwoPi / 16.0;
  for (double p = 0.0; p < movr::geom::kTwoPi; p += 0.01) {
    const double realized = four_bit.realize(p);
    EXPECT_LE(movr::geom::angular_distance(realized, p), step / 2.0 + 1e-9);
  }
}

TEST(PhasedArray, RejectsBadConfig) {
  PhasedArray::Config zero_elements;
  zero_elements.elements = 0;
  EXPECT_THROW(PhasedArray{zero_elements}, std::invalid_argument);
  PhasedArray::Config bad_spacing;
  bad_spacing.spacing_wavelengths = 0.0;
  EXPECT_THROW(PhasedArray{bad_spacing}, std::invalid_argument);
}

TEST(PhasedArray, PeakGainFormula) {
  PhasedArray array;  // 10 elements, 5.5 dBi each
  EXPECT_NEAR(array.peak_gain().value(), 15.5, 1e-9);
}

TEST(PhasedArray, BeamwidthNearTenDegrees) {
  PhasedArray array;
  EXPECT_NEAR(movr::geom::rad_to_deg(array.beamwidth_3db()), 10.15, 0.2);
}

TEST(PhasedArray, GainAtBoresightEqualsPeak) {
  PhasedArray array;
  array.steer(kPi / 2.0);
  EXPECT_NEAR(array.gain(kPi / 2.0).value(), array.peak_gain().value(), 0.01);
}

// Property: wherever the beam is steered (within the sector), the realised
// gain toward the steering angle is within a fraction of a dB of peak, and
// it is the maximum over all directions.
class SteeringProperty : public ::testing::TestWithParam<double> {};

TEST_P(SteeringProperty, PeakAtSteeringAngle) {
  PhasedArray array;
  const double steer = deg_to_rad(GetParam());
  array.steer(steer);
  const double at_steer = array.gain(steer).value();
  // Element pattern reduces off-boresight peak slightly; allow that.
  EXPECT_GT(at_steer, array.peak_gain().value() - 3.0);
  for (double a = deg_to_rad(5.0); a < deg_to_rad(175.0);
       a += deg_to_rad(1.0)) {
    EXPECT_LE(array.gain(a).value(), at_steer + 0.2)
        << "direction " << movr::geom::rad_to_deg(a);
  }
}

TEST_P(SteeringProperty, HalfPowerAtHalfBeamwidth) {
  PhasedArray array;
  const double steer = deg_to_rad(GetParam());
  array.steer(steer);
  const double bw = array.beamwidth_3db();
  // Beam broadens away from broadside by ~1/sin(steer).
  const double broadening = 1.0 / std::max(std::sin(steer), 0.3);
  const double at_peak = array.gain(steer).value();
  const double at_edge = array.gain(steer + bw / 2.0 * broadening).value();
  EXPECT_NEAR(at_peak - at_edge, 3.0, 1.7);
}

INSTANTIATE_TEST_SUITE_P(Sector, SteeringProperty,
                         ::testing::Values(50.0, 65.0, 80.0, 90.0, 105.0,
                                           120.0, 140.0));

TEST(PhasedArray, BackLobeSuppressed) {
  PhasedArray array;
  array.steer(kPi / 2.0);
  // Directly behind the ground plane.
  const double behind = array.gain(-kPi / 2.0).value();
  EXPECT_LT(behind, array.peak_gain().value() - 20.0);
}

TEST(PhasedArray, SidelobesBelowMainLobe) {
  PhasedArray array;
  array.steer(kPi / 2.0);
  const double peak = array.gain(kPi / 2.0).value();
  // Outside two beamwidths, everything is at least 10 dB down.
  const double bw = array.beamwidth_3db();
  for (double a = deg_to_rad(10.0); a < deg_to_rad(170.0);
       a += deg_to_rad(0.5)) {
    if (std::abs(a - kPi / 2.0) > 2.0 * bw) {
      EXPECT_LT(array.gain(a).value(), peak - 10.0)
          << movr::geom::rad_to_deg(a);
    }
  }
}

TEST(PhasedArray, FieldNormalisedAtSteering) {
  PhasedArray array;
  array.steer(deg_to_rad(70.0));
  EXPECT_NEAR(std::abs(array.field(deg_to_rad(70.0))), 1.0, 1e-6);
}

TEST(PhasedArray, QuantisedShiftersLoseLittleGain) {
  PhasedArray::Config analog_cfg;
  PhasedArray::Config quant_cfg;
  quant_cfg.phase_bits = 4;
  PhasedArray analog{analog_cfg};
  PhasedArray quant{quant_cfg};
  const double steer = deg_to_rad(63.0);
  analog.steer(steer);
  quant.steer(steer);
  const double loss = analog.gain(steer).value() - quant.gain(steer).value();
  EXPECT_GE(loss, -0.1);
  EXPECT_LT(loss, 1.0);  // 4-bit shifters cost well under 1 dB
}

TEST(PhasedArray, CoarseQuantisationCostsMore) {
  PhasedArray::Config coarse_cfg;
  coarse_cfg.phase_bits = 1;
  PhasedArray coarse{coarse_cfg};
  PhasedArray analog;
  // Average loss over several steering angles: 1-bit shifters hurt.
  double total_loss = 0.0;
  int n = 0;
  for (double deg = 45.0; deg <= 135.0; deg += 10.0) {
    const double steer = deg_to_rad(deg);
    coarse.steer(steer);
    analog.steer(steer);
    total_loss += analog.gain(steer).value() - coarse.gain(steer).value();
    ++n;
  }
  EXPECT_GT(total_loss / n, 1.0);
}

TEST(PhasedArray, MoreElementsNarrowerBeam) {
  PhasedArray::Config big_cfg;
  big_cfg.elements = 20;
  PhasedArray small;
  PhasedArray big{big_cfg};
  EXPECT_LT(big.beamwidth_3db(), small.beamwidth_3db());
  EXPECT_GT(big.peak_gain().value(), small.peak_gain().value());
}

/// The array factor as the element sum it models, one std::polar per
/// element: (1/N) sum_i e^{j(i psi + phase_i)}, with phase_i the shifter's
/// realisation of the progressive steering phase.
std::complex<double> per_element_field(const PhasedArray::Config& config,
                                       double steering, double angle) {
  const PhaseShifter shifter{config.phase_bits};
  const double kd = movr::geom::kTwoPi * config.spacing_wavelengths;
  const double progressive = -kd * std::cos(movr::geom::wrap_two_pi(steering));
  const double psi = kd * std::cos(angle);
  std::complex<double> sum{0.0, 0.0};
  for (int i = 0; i < config.elements; ++i) {
    const double phase = psi * static_cast<double>(i) +
                         shifter.realize(progressive * static_cast<double>(i));
    sum += std::polar(1.0, phase);
  }
  return sum / static_cast<double>(config.elements);
}

TEST(PhasedArray, FieldMatchesPerElementSum) {
  // Steering and look angles span the sector, both endfires and the back
  // lobe behind the ground plane.
  const std::vector<double> steerings{0.0,       0.02, deg_to_rad(40.0),
                                      kPi / 2.0, 2.3,  kPi - 0.02,
                                      kPi,       4.0,  5.9};
  std::vector<double> angles{0.0, kPi / 2.0, kPi, 1.5 * kPi};
  for (double a = 0.013; a < movr::geom::kTwoPi; a += 0.037) {
    angles.push_back(a);
  }
  for (const int elements : {1, 2, 10, 16}) {
    for (const int bits : {0, 3}) {
      PhasedArray::Config config;
      config.elements = elements;
      config.phase_bits = bits;
      PhasedArray array{config};
      for (const double steering : steerings) {
        array.steer(steering);
        for (const double angle : angles) {
          const std::complex<double> reference =
              per_element_field(config, steering, angle);
          EXPECT_LE(std::abs(array.field(angle) - reference), 1e-12)
              << elements << " elements, " << bits << " bits, steering "
              << steering << ", angle " << angle;
          EXPECT_NEAR(array.gain(angle).value(),
                      array.gain(angle, reference).value(), 1e-9)
              << elements << " elements, " << bits << " bits, steering "
              << steering << ", angle " << angle;
        }
      }
    }
  }
}

/// The bits of a field value, for comparisons that must be exact.
std::pair<std::uint64_t, std::uint64_t> field_bits(const PhasedArray& array,
                                                   double angle) {
  const std::complex<double> f = array.field(angle);
  return {std::bit_cast<std::uint64_t>(f.real()),
          std::bit_cast<std::uint64_t>(f.imag())};
}

/// Look angles over the front sector, both endfires and the back lobe.
std::vector<double> look_angles() {
  std::vector<double> angles{0.0, kPi / 2.0, kPi, 1.5 * kPi};
  for (double a = 0.013; a < movr::geom::kTwoPi; a += 0.091) {
    angles.push_back(a);
  }
  return angles;
}

TEST(PhasedArray, DefaultArrayHasBoresightWeights) {
  // A never-steered array computes its weights in the constructor; a
  // steer to its own steering is skipped, so it cannot be what sets them.
  for (const int bits : {0, 3}) {
    PhasedArray::Config config;
    config.phase_bits = bits;
    const PhasedArray fresh{config};
    EXPECT_EQ(fresh.steering(), kPi / 2.0);
    EXPECT_NEAR(std::abs(fresh.field(kPi / 2.0)), 1.0, 1e-12);
    PhasedArray resteered{config};
    resteered.steer(1.0);
    resteered.steer(kPi / 2.0);
    for (const double angle : look_angles()) {
      EXPECT_EQ(field_bits(fresh, angle), field_bits(resteered, angle))
          << bits << " bits, angle " << angle;
    }
  }
}

TEST(PhasedArray, SkippedSteerKeepsFieldBits) {
  // steer() skips an angle equal to the current steering bit for bit: a
  // return to an earlier steering, and a repeated steer, must leave the
  // same weights as one steer of a fresh array.
  const double x = deg_to_rad(63.0);
  const double y = deg_to_rad(118.0);
  for (const int bits : {0, 3}) {
    PhasedArray::Config config;
    config.phase_bits = bits;
    PhasedArray once{config};
    once.steer(x);
    PhasedArray back{config};
    back.steer(x);
    back.steer(y);
    back.steer(x);
    PhasedArray twice{config};
    twice.steer(x);
    twice.steer(x);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.steering()),
              std::bit_cast<std::uint64_t>(once.steering()));
    for (const double angle : look_angles()) {
      EXPECT_EQ(field_bits(back, angle), field_bits(once, angle))
          << bits << " bits, angle " << angle;
      EXPECT_EQ(field_bits(twice, angle), field_bits(once, angle))
          << bits << " bits, angle " << angle;
    }
  }
}

}  // namespace
}  // namespace movr::rf
