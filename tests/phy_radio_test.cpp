#include <phy/radio.hpp>

#include <cmath>
#include <complex>
#include <vector>

#include <gtest/gtest.h>

#include <geom/angle.hpp>

namespace movr::phy {
namespace {

using geom::Vec2;
using geom::deg_to_rad;
using geom::kPi;

TEST(RadioNode, LocalGlobalRoundTrip) {
  const RadioNode node{{1.0, 2.0}, deg_to_rad(30.0)};
  for (double local = 0.2; local < 6.0; local += 0.4) {
    EXPECT_NEAR(geom::angular_distance(node.to_local(node.to_global(local)),
                                       local),
                0.0, 1e-9);
  }
}

TEST(RadioNode, BoresightIsLocalNinety) {
  const RadioNode node{{0.0, 0.0}, deg_to_rad(45.0)};
  EXPECT_NEAR(node.to_local(deg_to_rad(45.0)), kPi / 2.0, 1e-12);
}

TEST(RadioNode, SteerTowardAimsAtTarget) {
  RadioNode node{{1.0, 1.0}, deg_to_rad(45.0)};
  node.steer_toward({4.0, 4.0});  // along the boresight
  EXPECT_NEAR(node.array().steering(), kPi / 2.0, 1e-9);
  EXPECT_NEAR(geom::angular_distance(node.steering_global(), deg_to_rad(45.0)),
              0.0, 1e-9);
}

TEST(RadioNode, FaceTowardSelectsFace) {
  RadioNode node{{2.0, 2.0}, 0.0};
  node.face_toward({2.0, 5.0});  // due north
  EXPECT_NEAR(node.orientation(), kPi / 2.0, 1e-12);
  EXPECT_NEAR(node.array().steering(), kPi / 2.0, 1e-12);
  // Peak gain toward the target, regardless of original mounting.
  EXPECT_NEAR(node.gain_toward(kPi / 2.0).value(),
              node.array().peak_gain().value(), 0.05);
}

TEST(RadioNode, GainDropsOffBoresight) {
  RadioNode node{{0.0, 0.0}, 0.0};
  node.steer_global(0.0);
  const double on = node.gain_toward(0.0).value();
  const double off = node.gain_toward(deg_to_rad(30.0)).value();
  EXPECT_GT(on - off, 10.0);
}

TEST(RadioNode, ResponseMagnitudeMatchesGain) {
  RadioNode node{{0.0, 0.0}, 0.7};
  node.steer_global(0.9);
  for (double az = 0.0; az < 6.2; az += 0.37) {
    const double from_response = 20.0 * std::log10(
        std::abs(node.response_toward(az)));
    EXPECT_NEAR(from_response, node.gain_toward(az).value(), 1e-6)
        << "azimuth " << az;
  }
}

TEST(RadioNode, ArrayResponseFreeFunctionAgrees) {
  rf::PhasedArray array;
  array.steer(deg_to_rad(75.0));
  for (double local = 0.3; local < 3.0; local += 0.3) {
    EXPECT_NEAR(20.0 * std::log10(std::abs(array_response(array, local))),
                array.gain(local).value(), 1e-6);
  }
}

/// The dB-domain response array_response computed before it moved to the
/// amplitude domain: amplitude sqrt(gain(angle, field)), field's phase.
std::complex<double> db_domain_response(const rf::PhasedArray& array,
                                        double local_angle) {
  const std::complex<double> f = array.field(local_angle);
  const double amplitude = std::sqrt(array.gain(local_angle, f).linear());
  const double mag = std::abs(f);
  if (mag < 1e-12) {
    return {amplitude, 0.0};
  }
  return amplitude * (f / mag);
}

TEST(RadioNode, ArrayResponseMatchesDbDomainReference) {
  const double floor_power =
      rf::PhasedArray::Config{}.scattering_floor.linear();
  const std::vector<double> steerings{0.0, deg_to_rad(40.0), kPi / 2.0, 2.3,
                                      kPi - 0.02};
  // Both endfires and just inside them (element pattern at its floor), the
  // back lobe, angles outside [0, 2 pi), and a sweep through the sidelobe
  // nulls (array factor below its floor).
  std::vector<double> angles{0.0, 1e-4, kPi - 1e-4, kPi, 1.5 * kPi, -0.4, 7.0};
  for (double a = 0.0031; a < 2.0 * kPi; a += 0.0173) {
    angles.push_back(a);
  }
  int below_floor = 0;
  int nulls = 0;
  for (const int elements : {1, 2, 10, 16}) {
    for (const int bits : {0, 3}) {
      rf::PhasedArray::Config config;
      config.elements = elements;
      config.phase_bits = bits;
      rf::PhasedArray array{config};
      for (const double steering : steerings) {
        array.steer(steering);
        for (const double angle : angles) {
          const std::complex<double> reference =
              db_domain_response(array, angle);
          const std::complex<double> response = array_response(array, angle);
          EXPECT_LE(std::abs(response - reference), 1e-12 * std::abs(reference))
              << elements << " elements, " << bits << " bits, steering "
              << steering << ", angle " << angle;
          EXPECT_EQ(array_response(array, array.look(angle)), response);
          const double power = std::norm(array.field(angle));
          below_floor += power < floor_power ? 1 : 0;
          nulls += power < 1e-24 ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(below_floor, 100);
  EXPECT_GT(nulls, 0);
}

TEST(RadioNode, TxPowerStored) {
  RadioNode node{{0.0, 0.0}, 0.0, {}, rf::DbmPower{7.0}};
  EXPECT_EQ(node.tx_power().value(), 7.0);
  node.set_tx_power(rf::DbmPower{-3.0});
  EXPECT_EQ(node.tx_power().value(), -3.0);
}

}  // namespace
}  // namespace movr::phy
