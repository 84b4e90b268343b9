#include <vr/session.hpp>

#include <gtest/gtest.h>

#include <baseline/strategies.hpp>
#include <core/gain_control.hpp>
#include <geom/angle.hpp>

namespace movr::vr {
namespace {

using movr::geom::Vec2;
using movr::geom::deg_to_rad;

core::Scene make_scene() {
  return core::Scene{channel::Room{5.0, 5.0},
                     core::ApRadio{{0.4, 0.4}, deg_to_rad(45.0)},
                     core::HeadsetRadio{{3.0, 2.0}, 0.0}};
}

void calibrate_reflector(core::Scene& scene, core::MovrReflector& reflector) {
  std::mt19937_64 rng{5};
  scene.calibrate_reflector(reflector, rng);
}

TEST(Session, CleanLosSessionHasNoGlitches) {
  core::Scene scene = make_scene();
  sim::Simulator simulator;
  baseline::DirectTrackingStrategy strategy{scene};
  Session::Config config;
  config.duration = sim::from_seconds(2.0);
  Session session{simulator, scene, strategy, nullptr, nullptr, config};
  const QoeReport report = session.run();
  EXPECT_EQ(report.frames, 180u);
  EXPECT_EQ(report.glitched_frames, 0u);
  EXPECT_TRUE(report.clean());
  EXPECT_GT(report.mean_snr_db, 20.0);
  EXPECT_NEAR(report.mean_rate_mbps, 6756.75, 1.0);
}

TEST(Session, HandBlockageGlitchesWithoutMovr) {
  core::Scene scene = make_scene();
  sim::Simulator simulator;
  baseline::DirectTrackingStrategy strategy{scene};
  const auto script =
      periodic_hand_raises(sim::from_seconds(0.5), sim::from_seconds(0.5),
                           sim::from_seconds(1.0), sim::from_seconds(2.0));
  Session::Config config;
  config.duration = sim::from_seconds(2.0);
  Session session{simulator, scene, strategy, nullptr, &script, config};
  const QoeReport report = session.run();
  // Two 0.5 s raises in 2 s: roughly half the frames glitch.
  EXPECT_GT(report.glitch_fraction(), 0.3);
  EXPECT_LT(report.glitch_fraction(), 0.7);
  EXPECT_GE(report.stall_events, 2u);
  EXPECT_GE(report.longest_stall, sim::from_seconds(0.4));
  EXPECT_FALSE(report.clean());
}

TEST(Session, MovrSurvivesHandBlockage) {
  core::Scene scene = make_scene();
  auto& reflector = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0));
  calibrate_reflector(scene, reflector);
  sim::Simulator simulator;
  MovrStrategy strategy{simulator, scene, std::mt19937_64{3}};
  const auto script =
      periodic_hand_raises(sim::from_seconds(0.5), sim::from_seconds(0.5),
                           sim::from_seconds(1.0), sim::from_seconds(2.0));
  Session::Config config;
  config.duration = sim::from_seconds(2.0);
  Session session{simulator, scene, strategy, nullptr, &script, config};
  const QoeReport report = session.run();
  // A handful of frames glitch during each handover; the bulk survive.
  EXPECT_LT(report.glitch_fraction(), 0.15);
  EXPECT_GT(strategy.manager().stats().handovers_to_reflector, 0);
}

TEST(Session, MovrBeatsDirectUnderSameScript) {
  const auto script =
      periodic_hand_raises(sim::from_seconds(0.5), sim::from_seconds(0.5),
                           sim::from_seconds(1.0), sim::from_seconds(4.0));
  Session::Config config;
  config.duration = sim::from_seconds(4.0);

  QoeReport direct_report;
  {
    core::Scene scene = make_scene();
    sim::Simulator simulator;
    baseline::DirectTrackingStrategy strategy{scene};
    Session session{simulator, scene, strategy, nullptr, &script, config};
    direct_report = session.run();
  }
  QoeReport movr_report;
  {
    core::Scene scene = make_scene();
    auto& reflector = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0));
    calibrate_reflector(scene, reflector);
    sim::Simulator simulator;
    MovrStrategy strategy{simulator, scene, std::mt19937_64{3}};
    Session session{simulator, scene, strategy, nullptr, &script, config};
    movr_report = session.run();
  }
  EXPECT_EQ(direct_report.frames, movr_report.frames);
  EXPECT_LT(movr_report.glitch_fraction(),
            direct_report.glitch_fraction() / 2.0);
}

TEST(Session, WalkingPlayerWithMotionModel) {
  core::Scene scene = make_scene();
  auto& reflector = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0));
  calibrate_reflector(scene, reflector);
  sim::Simulator simulator;
  MovrStrategy strategy{simulator, scene, std::mt19937_64{4}};
  PlayerMotion motion{scene.room(), {3.0, 2.0}, 21};
  Session::Config config;
  config.duration = sim::from_seconds(3.0);
  Session session{simulator, scene, strategy, &motion, nullptr, config};
  const QoeReport report = session.run();
  EXPECT_EQ(report.frames, 270u);
  // Walking around with clear LOS: essentially glitch-free.
  EXPECT_LT(report.glitch_fraction(), 0.05);
}

TEST(Session, ReportStatisticsConsistent) {
  core::Scene scene = make_scene();
  sim::Simulator simulator;
  baseline::DirectTrackingStrategy strategy{scene};
  Session::Config config;
  config.duration = sim::from_seconds(1.0);
  Session session{simulator, scene, strategy, nullptr, nullptr, config};
  const QoeReport report = session.run();
  EXPECT_LE(report.glitched_frames, report.frames);
  EXPECT_LE(report.min_snr_db, report.mean_snr_db + 1e-9);
  EXPECT_GE(report.mean_rate_mbps, 0.0);
  EXPECT_EQ(report.stall_events, 0u);
  EXPECT_EQ(report.longest_stall, sim::Duration::zero());
}

}  // namespace
}  // namespace movr::vr
