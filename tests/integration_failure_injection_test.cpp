// Failure injection: the protocols must degrade, not break, when the world
// misbehaves — lossy control links, noisy sensors, oscillating relays,
// blockage striking mid-calibration.
#include <gtest/gtest.h>

#include <core/movr.hpp>
#include <geom/angle.hpp>
#include <sim/rng.hpp>
#include <vr/session.hpp>

namespace movr {
namespace {

using core::ApRadio;
using core::HeadsetRadio;
using core::Scene;
using geom::deg_to_rad;
using geom::rad_to_deg;

Scene make_scene() {
  return Scene{channel::Room{5.0, 5.0}, ApRadio{{0.4, 0.4}, deg_to_rad(45.0)},
               HeadsetRadio{{3.0, 2.0}, 0.0}};
}

TEST(FailureInjection, IncidenceSearchSurvivesTerribleBluetooth) {
  // 30% loss AND 2 ms jitter: commands arrive late or repeated, never
  // corrupted. The search must complete and stay in the right neighbourhood.
  sim::ControlChannel::Config awful;
  awful.loss_probability = 0.3;
  awful.jitter = sim::Duration{std::chrono::milliseconds{2}};
  awful.max_retries = 4;

  Scene scene = make_scene();
  auto& reflector = scene.add_reflector({3.4, 4.8}, deg_to_rad(262.0));
  sim::Simulator simulator;
  sim::ControlChannel control{simulator, awful, std::mt19937_64{3}};
  control.attach(reflector.control_name(),
                 [&](const sim::ControlMessage& m) { reflector.handle(m); });

  core::IncidenceResult result;
  core::IncidenceSearch search{simulator, control, scene, reflector,
                               core::make_search_config(2.0),
                               std::mt19937_64{5}};
  search.start([&](const core::IncidenceResult& r) { result = r; });
  simulator.run();
  ASSERT_TRUE(result.completed);
  const double error = rad_to_deg(geom::angular_distance(
      result.reflector_angle, scene.true_reflector_angle_to_ap(reflector)));
  EXPECT_LE(error, 8.0);
  EXPECT_EQ(control.stats().dropped + control.stats().delivered +
                control.stats().undeliverable,
            control.stats().sent);
}

TEST(FailureInjection, GainControlWithNoisySensorStaysSafe) {
  // A sensor 5x noisier than spec: the controller may stop early (false
  // knee) but must never leave the loop unstable or compressed.
  hw::ReflectorFrontEnd::Config config;
  config.sensor.noise_sigma_a = 0.010;
  config.leakage.board_coupling = rf::Decibels{-14.0};  // leaky build
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    hw::ReflectorFrontEnd fe{config};
    fe.steer_rx(deg_to_rad(70.0));
    fe.steer_tx(deg_to_rad(50.0));
    std::mt19937_64 rng{seed};
    core::GainController::Config gc;
    gc.knee_threshold_a = 0.030;  // raised to clear the noisier floor
    core::GainController::run(fe, rf::DbmPower{-48.0}, rng, gc);
    const auto state = fe.process(rf::DbmPower{-48.0});
    EXPECT_TRUE(state.stable) << "seed " << seed;
    EXPECT_FALSE(state.saturated) << "seed " << seed;
  }
}

TEST(FailureInjection, OscillatingRelayIsWorseThanNothing) {
  // Force the loop unstable (leaky build, max gain): the relay's garbage
  // raises the floor at the headset, so via_snr must drop BELOW what the
  // direct (blocked) path alone would give. The system must know it.
  hw::ReflectorFrontEnd::Config leaky;
  leaky.leakage.board_coupling = rf::Decibels{-4.0};
  Scene scene = make_scene();
  auto& reflector = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0), leaky);
  reflector.front_end().steer_rx(scene.true_reflector_angle_to_ap(reflector));
  reflector.front_end().steer_tx(
      scene.true_reflector_angle_to_headset(reflector));
  reflector.front_end().set_gain_code(reflector.front_end().max_gain_code());
  scene.aim_via(reflector);

  const auto via = scene.via_snr(reflector);
  ASSERT_FALSE(via.front_end.stable);
  EXPECT_FALSE(via.usable);
  const rf::Decibels direct_only = scene.direct_snr();
  EXPECT_LT(via.snr.value(), direct_only.value());
}

TEST(FailureInjection, BlockageDuringReflectionSearchRecoverable) {
  // A person wanders through mid-search. The search may pick a slightly
  // worse angle; a single pose-aided retarget afterwards must restore it.
  Scene scene = make_scene();
  auto& reflector = scene.add_reflector({3.4, 4.8}, deg_to_rad(262.0));
  reflector.front_end().steer_rx(scene.true_reflector_angle_to_ap(reflector));
  scene.aim_via(reflector);
  scene.room().add_obstacle(channel::make_person({2.8, 3.2}));

  sim::Simulator simulator;
  sim::ControlChannel control{simulator, {}, std::mt19937_64{7}};
  control.attach(reflector.control_name(),
                 [&](const sim::ControlMessage& m) { reflector.handle(m); });
  core::ReflectionResult result;
  core::ReflectionSearch search{simulator, control, scene, reflector,
                                core::make_search_config(1.0),
                                std::mt19937_64{9}};
  search.start([&](const core::ReflectionResult& r) { result = r; });
  simulator.run();
  ASSERT_TRUE(result.completed);

  scene.room().remove_obstacles("person");
  std::mt19937_64 rng{11};
  reflector.front_end().set_gain_code(200);
  const auto retarget = core::BeamTracker::retarget(scene, reflector, rng);
  EXPECT_GT(retarget.snr.value(), 15.0);
}

TEST(FailureInjection, HeadsetTriggerDoesNotFlapOnNoise) {
  // SNR hovering 1 dB above the degrade threshold with estimator noise:
  // the smoothed trigger must not oscillate every frame.
  core::HeadsetRadio headset{{0.0, 0.0}, 0.0};
  std::mt19937_64 rng{13};
  int transitions = 0;
  bool last = headset.degraded();
  for (int i = 0; i < 2000; ++i) {
    headset.observe(rf::Decibels{21.0}, rng);
    if (headset.degraded() != last) {
      ++transitions;
      last = headset.degraded();
    }
  }
  EXPECT_LT(transitions, 40);  // < 2% of frames
}

TEST(FailureInjection, LinkManagerSurvivesAllReflectorsBlocked) {
  Scene scene = make_scene();
  auto& reflector = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0));
  reflector.front_end().steer_rx(scene.true_reflector_angle_to_ap(reflector));
  reflector.front_end().steer_tx(
      scene.true_reflector_angle_to_headset(reflector));
  reflector.front_end().set_gain_code(220);

  // Wall the reflector in AND block the direct path: nothing works.
  scene.room().add_obstacle(
      {geom::Circle{{4.2, 4.2}, 0.3}, channel::kFurniture, "crate"});
  scene.room().add_obstacle(channel::make_person({1.7, 1.2}));

  sim::Simulator simulator;
  core::LinkManager manager{simulator, scene, std::mt19937_64{17}};
  for (int i = 0; i < 40; ++i) {
    const rf::Decibels snr = manager.on_frame();
    simulator.run_until(simulator.now() + sim::Duration{11'111'111});
    EXPECT_GT(snr.value(), -100.0);  // sane numbers, no NaN/crash
  }
  // It tried the reflector (and found it bad) or stayed direct — either
  // way the session kept running.
  SUCCEED();
}

TEST(FailureInjection, SessionWithDeadLinkCountsAllGlitches) {
  struct DeadStrategy final : vr::LinkStrategy {
    rf::Decibels on_frame() override { return rf::Decibels{-300.0}; }
    std::string_view name() const override { return "dead"; }
  };
  Scene scene = make_scene();
  sim::Simulator simulator;
  DeadStrategy strategy;
  vr::Session::Config config;
  config.duration = sim::from_seconds(1.0);
  vr::Session session{simulator, scene, strategy, nullptr, nullptr, config};
  const auto report = session.run();
  EXPECT_EQ(report.glitched_frames, report.frames);
  EXPECT_EQ(report.stall_events, 1u);
}

}  // namespace
}  // namespace movr
