#include <vr/deployment.hpp>

#include <gtest/gtest.h>

#include <geom/angle.hpp>

namespace movr::vr {
namespace {

using geom::Vec2;
using geom::deg_to_rad;

core::Scene scene_with_reflector() {
  core::Scene scene{channel::Room{5.0, 5.0},
                    core::ApRadio{{0.4, 0.4}, deg_to_rad(45.0)},
                    core::HeadsetRadio{{3.0, 2.0}, 0.0}};
  scene.add_reflector({3.4, 4.8}, deg_to_rad(262.0));
  return scene;
}

TEST(Deployment, CalibratesEveryReflector) {
  Deployment::Config config;
  config.search_step_deg = 2.0;  // keep the test quick
  Deployment deployment{scene_with_reflector(), config};
  const auto report = deployment.calibrate();
  ASSERT_EQ(report.reflectors.size(), 1u);
  EXPECT_TRUE(report.all_usable);
  const auto& cal = report.reflectors.front();
  EXPECT_TRUE(cal.incidence.completed);
  EXPECT_TRUE(cal.reflection.completed);
  EXPECT_GT(cal.gain.final_gain.value(), 20.0);
  EXPECT_GT(sim::to_seconds(report.total), 0.5);

  // The calibrated system relays at VR grade.
  auto& scene = deployment.scene();
  auto& reflector = scene.reflector(0);
  scene.aim_via(reflector);
  EXPECT_GT(scene.via_snr(reflector).snr.value(), 17.0);
}

TEST(Deployment, AccurateAngles) {
  Deployment::Config config;
  config.search_step_deg = 1.0;
  Deployment deployment{scene_with_reflector(), config};
  const auto report = deployment.calibrate();
  const auto& scene = deployment.scene();
  const auto& reflector = scene.reflector(0);
  const double inc_err = geom::rad_to_deg(geom::angular_distance(
      report.reflectors[0].incidence.reflector_angle,
      scene.true_reflector_angle_to_ap(reflector)));
  EXPECT_LE(inc_err, 2.0);
}

TEST(Deployment, PlayAfterCalibrateSurvivesBlockage) {
  Deployment::Config config;
  config.search_step_deg = 2.0;
  Deployment deployment{scene_with_reflector(), config};
  deployment.calibrate();
  const auto script = periodic_hand_raises(
      sim::from_seconds(0.3), sim::from_seconds(0.4), sim::from_seconds(1.0),
      sim::from_seconds(2.0));
  Session::Config session_config;
  session_config.duration = sim::from_seconds(2.0);
  const QoeReport report = deployment.play(nullptr, &script, session_config);
  EXPECT_EQ(report.frames, 180u);
  EXPECT_LT(report.glitch_fraction(), 0.15);
}

TEST(Deployment, TwoReflectorsBothCalibrated) {
  core::Scene scene{channel::Room{5.0, 5.0},
                    core::ApRadio{{0.4, 0.4}, deg_to_rad(45.0)},
                    core::HeadsetRadio{{3.0, 2.0}, 0.0}};
  scene.add_reflector({3.4, 4.8}, deg_to_rad(262.0));
  scene.add_reflector({4.8, 2.8}, deg_to_rad(180.0));
  Deployment::Config config;
  config.search_step_deg = 3.0;
  Deployment deployment{std::move(scene), config};
  const auto report = deployment.calibrate();
  ASSERT_EQ(report.reflectors.size(), 2u);
  EXPECT_TRUE(report.reflectors[0].incidence.completed);
  EXPECT_TRUE(report.reflectors[1].incidence.completed);
}

TEST(Deployment, LossyBluetoothStillCalibrates) {
  Deployment::Config config;
  config.search_step_deg = 3.0;
  config.bluetooth.loss_probability = 0.2;
  Deployment deployment{scene_with_reflector(), config};
  const auto report = deployment.calibrate();
  EXPECT_TRUE(report.reflectors.front().incidence.completed);
  EXPECT_GT(deployment.bluetooth().stats().retransmitted, 0u);
}

}  // namespace
}  // namespace movr::vr
