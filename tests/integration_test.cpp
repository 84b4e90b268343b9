// End-to-end integration: the full MoVR lifecycle as a deployment would run
// it — install, calibrate over the real control channel, then play — plus
// cross-module consistency checks that individual unit suites cannot see.
#include <gtest/gtest.h>

#include <baseline/strategies.hpp>
#include <core/movr.hpp>
#include <geom/angle.hpp>
#include <sim/rng.hpp>
#include <vr/session.hpp>

namespace movr {
namespace {

using core::ApRadio;
using core::HeadsetRadio;
using core::MovrReflector;
using core::Scene;
using geom::Vec2;
using geom::deg_to_rad;

TEST(Integration, FullLifecycle) {
  // 1. Install: AP in a corner, reflector on the far wall, player mid-room.
  sim::RngRegistry rngs{2024};
  Scene scene{channel::Room{5.0, 5.0}, ApRadio{{0.4, 0.4}, deg_to_rad(45.0)},
              HeadsetRadio{{2.8, 1.8}, 0.0}};
  auto& reflector = scene.add_reflector({3.6, 4.8}, deg_to_rad(265.0));

  sim::Simulator simulator;
  sim::ControlChannel control{simulator, {}, rngs.stream("bt")};
  control.attach(reflector.control_name(),
                 [&](const sim::ControlMessage& m) { reflector.handle(m); });

  // 2. Calibrate phase 1: incidence angle via backscatter.
  core::IncidenceResult incidence;
  core::IncidenceSearch incidence_search{
      simulator, control, scene, reflector, core::make_search_config(1.0),
      rngs.stream("incidence")};
  incidence_search.start([&](const core::IncidenceResult& r) { incidence = r; });
  simulator.run();
  ASSERT_TRUE(incidence.completed);
  EXPECT_LE(geom::rad_to_deg(geom::angular_distance(
                incidence.reflector_angle,
                scene.true_reflector_angle_to_ap(reflector))),
            2.0);

  // 3. Calibrate phase 2: reflection angle via headset reports.
  scene.headset().node().face_toward(reflector.position());
  core::ReflectionResult reflection;
  core::ReflectionSearch reflection_search{
      simulator, control, scene, reflector, core::make_search_config(1.0),
      rngs.stream("reflection")};
  reflection_search.start(
      [&](const core::ReflectionResult& r) { reflection = r; });
  simulator.run();
  ASSERT_TRUE(reflection.completed);

  // 4. Gain control on the calibrated beams.
  auto gain_rng = rngs.stream("gain");
  const auto gain = core::GainController::run(
      reflector.front_end(), scene.reflector_input(reflector), gain_rng);
  EXPECT_GT(gain.final_gain.value(), 30.0);
  EXPECT_TRUE(scene.via_snr(reflector).usable);

  // 5. Play: hands go up every second; the session must stay essentially
  // glitch-free because every blockage is bridged by the reflector.
  vr::MovrStrategy strategy{simulator, scene, rngs.stream("manager")};
  const auto script = vr::periodic_hand_raises(
      sim::from_seconds(0.5), sim::from_seconds(0.4), sim::from_seconds(1.0),
      sim::from_seconds(4.0));
  vr::Session::Config config;
  config.duration = sim::from_seconds(4.0);
  vr::Session session{simulator, scene, strategy, nullptr, &script, config};
  const vr::QoeReport report = session.run();

  EXPECT_EQ(report.frames, 360u);
  EXPECT_LT(report.glitch_fraction(), 0.1);
  EXPECT_GT(strategy.manager().stats().handovers_to_reflector, 0);
}

TEST(Integration, CalibrationTimesMatchPaperScale) {
  // Section 6: full beam alignment is the slowest step (about a second);
  // steering itself is electronic. Verify the simulated costs land on the
  // scales the paper reasons about.
  sim::RngRegistry rngs{77};
  Scene scene{channel::Room{5.0, 5.0}, ApRadio{{0.4, 0.4}, deg_to_rad(45.0)},
              HeadsetRadio{{3.0, 2.0}, 0.0}};
  auto& reflector = scene.add_reflector({3.6, 4.8}, deg_to_rad(265.0));
  sim::Simulator simulator;
  sim::ControlChannel control{simulator, {}, rngs.stream("bt")};
  control.attach(reflector.control_name(),
                 [&](const sim::ControlMessage& m) { reflector.handle(m); });

  core::IncidenceResult incidence;
  core::IncidenceSearch search{simulator, control, scene, reflector,
                               core::make_search_config(1.0),
                               rngs.stream("meas")};
  search.start([&](const core::IncidenceResult& r) { incidence = r; });
  simulator.run();
  const double search_ms = sim::to_milliseconds(incidence.duration);
  EXPECT_GT(search_ms, 200.0);  // way beyond a frame: must not run mid-game

  auto gain_rng = rngs.stream("gain");
  scene.ap().node().steer_toward(reflector.position());
  const auto gain = core::GainController::run(
      reflector.front_end(), scene.reflector_input(reflector), gain_rng);
  const double gain_ms = sim::to_milliseconds(gain.duration);
  EXPECT_LT(gain_ms, 300.0);

  // Pose-aided retargeting fits within a frame or two — the Section 6
  // argument for why tracking beats re-searching.
  auto tracker_rng = rngs.stream("tracker");
  const auto retarget =
      core::BeamTracker::retarget(scene, reflector, tracker_rng);
  EXPECT_LE(sim::to_milliseconds(retarget.duration), 22.3);
  EXPECT_LT(retarget.duration, incidence.duration / 10);
}

TEST(Integration, ReflectorBridgesAllPaperBlockageKinds) {
  // Hand, head, and a passing person (Fig. 2 / Fig. 3 scenarios): in every
  // case the direct link collapses below the VR threshold and the reflector
  // path restores it.
  sim::RngRegistry rngs{31};
  for (const auto kind :
       {vr::BlockageEvent::Kind::kHand, vr::BlockageEvent::Kind::kHead,
        vr::BlockageEvent::Kind::kPersonCrossing}) {
    Scene scene{channel::Room{5.0, 5.0},
                ApRadio{{0.4, 0.4}, deg_to_rad(45.0)},
                HeadsetRadio{{3.0, 2.0}, 0.0}};
    auto& reflector = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0));
    reflector.front_end().steer_rx(
        scene.true_reflector_angle_to_ap(reflector));
    reflector.front_end().steer_tx(
        scene.true_reflector_angle_to_headset(reflector));
    scene.ap().node().steer_toward(reflector.position());
    auto gain_rng = rngs.stream("gain");
    core::GainController::run(reflector.front_end(),
                              scene.reflector_input(reflector), gain_rng);

    // Apply the blockage.
    const Vec2 headset = scene.headset().node().position();
    const Vec2 ap = scene.ap().node().position();
    switch (kind) {
      case vr::BlockageEvent::Kind::kHand:
        scene.room().add_obstacle(channel::make_hand(headset, ap - headset));
        break;
      case vr::BlockageEvent::Kind::kHead:
        scene.room().add_obstacle(channel::make_head(headset, ap - headset));
        break;
      case vr::BlockageEvent::Kind::kPersonCrossing:
        scene.room().add_obstacle(
            channel::make_person((headset + ap) * 0.5));
        break;
    }

    // Direct path: dead for VR purposes.
    core::Scene& s = scene;
    s.ap().node().steer_toward(headset);
    s.headset().node().face_toward(ap);
    EXPECT_LT(s.direct_snr().value(), 17.5);

    // Via the reflector: alive.
    s.aim_via(reflector);
    EXPECT_GT(s.via_snr(reflector).snr.value(), 17.5);
  }
}

TEST(Integration, DeterministicGivenSeeds) {
  const auto run = [](std::uint64_t seed) {
    sim::RngRegistry rngs{seed};
    Scene scene{channel::Room{5.0, 5.0},
                ApRadio{{0.4, 0.4}, deg_to_rad(45.0)},
                HeadsetRadio{{3.0, 2.0}, 0.0}};
    auto& reflector = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0));
    reflector.front_end().steer_rx(
        scene.true_reflector_angle_to_ap(reflector));
    reflector.front_end().steer_tx(
        scene.true_reflector_angle_to_headset(reflector));
    scene.ap().node().steer_toward(reflector.position());
    auto gain_rng = rngs.stream("gain");
    core::GainController::run(reflector.front_end(),
                              scene.reflector_input(reflector), gain_rng);
    sim::Simulator simulator;
    vr::MovrStrategy strategy{simulator, scene, rngs.stream("manager")};
    const auto script = vr::periodic_hand_raises(
        sim::from_seconds(0.3), sim::from_seconds(0.3), sim::from_seconds(1.0),
        sim::from_seconds(2.0));
    vr::Session::Config config;
    config.duration = sim::from_seconds(2.0);
    vr::Session session{simulator, scene, strategy, nullptr, &script, config};
    return session.run();
  };
  const auto a = run(5);
  const auto b = run(5);
  EXPECT_EQ(a.frames, b.frames);
  EXPECT_EQ(a.glitched_frames, b.glitched_frames);
  EXPECT_EQ(a.mean_snr_db, b.mean_snr_db);
  const auto c = run(6);
  // A different seed wiggles the noise but not the story.
  EXPECT_EQ(a.frames, c.frames);
}

}  // namespace
}  // namespace movr
