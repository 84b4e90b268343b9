#include <core/scene.hpp>

#include <gtest/gtest.h>

#include <geom/angle.hpp>

namespace movr::core {
namespace {

using movr::geom::Vec2;
using movr::geom::deg_to_rad;

Scene make_scene() {
  auto room = channel::Room{5.0, 5.0};  // empty: no furniture surprises
  const Vec2 ap_pos{0.4, 0.4};
  ApRadio ap{ap_pos, deg_to_rad(45.0)};
  HeadsetRadio headset{{3.0, 2.0}, 0.0};
  return Scene{std::move(room), std::move(ap), std::move(headset)};
}

TEST(Scene, DirectSnrWithAlignedBeams) {
  Scene scene = make_scene();
  scene.aim_direct();
  const double snr = scene.direct_snr().value();
  EXPECT_GT(snr, 18.0);
  EXPECT_LT(snr, 35.0);
}

TEST(Scene, ReflectorRegistry) {
  Scene scene = make_scene();
  EXPECT_EQ(scene.reflector_count(), 0u);
  auto& r0 = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0));
  auto& r1 = scene.add_reflector({0.4, 4.6}, deg_to_rad(315.0));
  EXPECT_EQ(scene.reflector_count(), 2u);
  EXPECT_EQ(r0.control_name(), "reflector0");
  EXPECT_EQ(r1.control_name(), "reflector1");
  EXPECT_EQ(&scene.reflector(0), &r0);
  EXPECT_EQ(&scene.reflector(1), &r1);
}

TEST(Scene, TrueAngleHelpersConsistent) {
  Scene scene = make_scene();
  auto& reflector = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0));
  // The AP lies along the reflector's boresight diagonal: local angle 90.
  EXPECT_NEAR(movr::geom::rad_to_deg(scene.true_reflector_angle_to_ap(reflector)),
              90.0, 1.0);
  // to_local/to_global round trip.
  const double local = scene.true_reflector_angle_to_headset(reflector);
  const double global = reflector.to_global(local);
  EXPECT_NEAR(movr::geom::angular_distance(
                  global, (scene.headset().node().position() -
                           reflector.position())
                              .heading()),
              0.0, 1e-9);
}

TEST(Scene, ReflectorInputStrongWhenAligned) {
  Scene scene = make_scene();
  auto& reflector = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0));
  scene.ap().node().steer_toward(reflector.position());
  reflector.front_end().steer_rx(scene.true_reflector_angle_to_ap(reflector));
  const double aligned = scene.reflector_input(reflector).value();
  reflector.front_end().steer_rx(
      scene.true_reflector_angle_to_ap(reflector) + deg_to_rad(30.0));
  const double misaligned = scene.reflector_input(reflector).value();
  EXPECT_GT(aligned, -60.0);
  EXPECT_GT(aligned - misaligned, 10.0);
}

TEST(Scene, ViaSnrUsableAndStrong) {
  Scene scene = make_scene();
  auto& reflector = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0));
  scene.aim_via(reflector);
  reflector.front_end().steer_rx(scene.true_reflector_angle_to_ap(reflector));
  reflector.front_end().steer_tx(
      scene.true_reflector_angle_to_headset(reflector));
  reflector.front_end().set_gain_code(255);
  const auto via = scene.via_snr(reflector);
  EXPECT_TRUE(via.usable);
  EXPECT_TRUE(via.front_end.stable);
  EXPECT_GT(via.snr.value(), 18.0);
}

TEST(Scene, ViaSnrZeroGainStillRelaysWeakly) {
  Scene scene = make_scene();
  auto& reflector = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0));
  scene.aim_via(reflector);
  reflector.front_end().steer_rx(scene.true_reflector_angle_to_ap(reflector));
  reflector.front_end().steer_tx(
      scene.true_reflector_angle_to_headset(reflector));
  reflector.front_end().set_gain_code(180);
  const double amplified = scene.via_snr(reflector).snr.value();
  reflector.front_end().set_gain_code(0);
  const double passive = scene.via_snr(reflector).snr.value();
  EXPECT_GT(amplified, passive + 20.0);
}

TEST(Scene, BackscatterRequiresModulation) {
  Scene scene = make_scene();
  auto& reflector = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0));
  scene.ap().node().steer_toward(reflector.position());
  const double both = scene.true_reflector_angle_to_ap(reflector);
  reflector.front_end().steer_rx(both);
  reflector.front_end().steer_tx(both);
  reflector.front_end().set_gain_code(170);
  reflector.front_end().set_modulating(false);
  EXPECT_LT(scene.backscatter_at_ap(reflector).value(), -250.0);
  reflector.front_end().set_modulating(true);
  const double sideband = scene.backscatter_at_ap(reflector).value();
  EXPECT_GT(sideband, -90.0);  // comfortably above the AP's -100 dBm residual
  EXPECT_LT(sideband, -40.0);
}

TEST(Scene, BackscatterPeaksAtTrueAngles) {
  Scene scene = make_scene();
  auto& reflector = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0));
  reflector.front_end().set_gain_code(170);
  reflector.front_end().set_modulating(true);
  const double truth_r = scene.true_reflector_angle_to_ap(reflector);
  const double truth_a = scene.true_ap_angle_to_reflector(reflector);
  reflector.front_end().steer_rx(truth_r);
  reflector.front_end().steer_tx(truth_r);
  scene.ap().node().array().steer(truth_a);
  const double peak = scene.backscatter_at_ap(reflector).value();
  // Detune either side by 20 degrees: reading collapses.
  reflector.front_end().steer_rx(truth_r + deg_to_rad(20.0));
  reflector.front_end().steer_tx(truth_r + deg_to_rad(20.0));
  EXPECT_GT(peak - scene.backscatter_at_ap(reflector).value(), 15.0);
  reflector.front_end().steer_rx(truth_r);
  reflector.front_end().steer_tx(truth_r);
  scene.ap().node().array().steer(truth_a + deg_to_rad(20.0));
  EXPECT_GT(peak - scene.backscatter_at_ap(reflector).value(), 10.0);
}

TEST(Scene, ApMeasurementChain) {
  Scene scene = make_scene();
  std::mt19937_64 rng{3};
  // Strong sideband reads near truth; nothing reads near the residual floor.
  const auto strong = scene.ap().measure_backscatter(rf::DbmPower{-60.0}, rng);
  EXPECT_NEAR(strong.value(), -60.0, 2.5);
  const auto nothing = scene.ap().measure_backscatter(rf::DbmPower{}, rng);
  EXPECT_LT(nothing.value(), -95.0);
}

TEST(Scene, MutatingRoomAffectsPhysicsImmediately) {
  Scene scene = make_scene();
  scene.aim_direct();
  const double clear = scene.direct_snr().value();
  scene.room().add_obstacle(channel::make_person(
      (scene.ap().node().position() + scene.headset().node().position()) *
      0.5));
  const double blocked = scene.direct_snr().value();
  EXPECT_GT(clear - blocked, 15.0);
  scene.room().remove_obstacles("person");
  EXPECT_NEAR(scene.direct_snr().value(), clear, 1e-9);
}

TEST(Scene, AimingPairsPointBothEndsAtEachOther) {
  Scene scene = make_scene();
  auto& reflector = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0));
  const auto& ap = scene.ap().node();
  const auto& headset = scene.headset().node();
  const auto pointed_at = [](const phy::RadioNode& node, Vec2 target) {
    return movr::geom::angular_distance(
        node.steering_global(), (target - node.position()).heading());
  };
  scene.aim_direct();
  EXPECT_NEAR(pointed_at(ap, headset.position()), 0.0, 1e-9);
  EXPECT_NEAR(pointed_at(headset, ap.position()), 0.0, 1e-9);
  scene.aim_via(reflector);
  EXPECT_NEAR(pointed_at(ap, reflector.position()), 0.0, 1e-9);
  EXPECT_NEAR(pointed_at(headset, reflector.position()), 0.0, 1e-9);
}

TEST(Scene, CalibrateReflectorAimsByGroundTruthThenRamps) {
  Scene scene = make_scene();
  auto& reflector = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0));
  std::mt19937_64 rng{1};
  const auto gain = scene.calibrate_reflector(reflector, rng);
  const auto& front_end = reflector.front_end();
  EXPECT_EQ(front_end.rx_array().steering(),
            scene.true_reflector_angle_to_ap(reflector));
  EXPECT_EQ(front_end.tx_array().steering(),
            scene.true_reflector_angle_to_headset(reflector));
  EXPECT_EQ(scene.ap().node().array().steering(),
            scene.true_ap_angle_to_reflector(reflector));
  EXPECT_EQ(front_end.gain_code(), gain.final_code);
  scene.aim_via(reflector);
  EXPECT_TRUE(scene.via_snr(reflector).usable);

  // A reflector the scene does not own calibrates the same way.
  MovrReflector mount{{4.6, 4.6}, deg_to_rad(225.0)};
  std::mt19937_64 same_rng{1};
  EXPECT_EQ(scene.calibrate_reflector(mount, same_rng).final_code,
            gain.final_code);
}

}  // namespace
}  // namespace movr::core
