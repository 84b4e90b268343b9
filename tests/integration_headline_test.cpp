// The headline regression: under one identical blocked world, the strategy
// ranking the paper's argument rests on must hold —
//   MoVR < dual-antenna < direct-tracked < fixed-beam   (glitch fraction)
// and the NLOS-sweep baseline must not rescue the VR rate.
#include <gtest/gtest.h>

#include <baseline/dual_antenna.hpp>
#include <baseline/strategies.hpp>
#include <core/gain_control.hpp>
#include <geom/angle.hpp>
#include <vr/vr.hpp>

namespace movr {
namespace {

using geom::deg_to_rad;

core::Scene make_scene(bool with_reflector) {
  core::Scene scene{channel::Room{5.0, 5.0},
                    core::ApRadio{{0.4, 0.4}, deg_to_rad(45.0)},
                    core::HeadsetRadio{{3.0, 2.2}, 0.0}};
  if (with_reflector) {
    auto& reflector = scene.add_reflector({3.6, 4.8}, deg_to_rad(265.0));
    std::mt19937_64 rng{2};
    scene.calibrate_reflector(reflector, rng);
  }
  return scene;
}

vr::BlockageScript script() {
  // Hands up half the time, plus one head turn.
  auto events = vr::periodic_hand_raises(sim::from_seconds(0.4),
                                         sim::from_seconds(0.6),
                                         sim::from_seconds(1.2),
                                         sim::from_seconds(4.0))
                    .events();
  vr::BlockageEvent head;
  head.kind = vr::BlockageEvent::Kind::kHead;
  head.start = sim::from_seconds(2.6);
  head.duration = sim::from_seconds(0.5);
  events.push_back(head);
  return vr::BlockageScript{std::move(events)};
}

double run_glitch_fraction(vr::LinkStrategy& strategy, core::Scene& scene,
                           sim::Simulator& simulator) {
  const auto s = script();
  vr::Session::Config config;
  config.duration = sim::from_seconds(4.0);
  vr::Session session{simulator, scene, strategy, nullptr, &s, config};
  return session.run().glitch_fraction();
}

TEST(Headline, StrategyOrderingHolds) {
  double movr = 0.0;
  double dual = 0.0;
  double direct = 0.0;
  double fixed = 0.0;
  {
    auto scene = make_scene(true);
    sim::Simulator simulator;
    vr::MovrStrategy strategy{simulator, scene, std::mt19937_64{3}};
    movr = run_glitch_fraction(strategy, scene, simulator);
  }
  {
    auto scene = make_scene(false);
    sim::Simulator simulator;
    baseline::DualAntennaStrategy strategy{scene};
    dual = run_glitch_fraction(strategy, scene, simulator);
  }
  {
    auto scene = make_scene(false);
    sim::Simulator simulator;
    baseline::DirectTrackingStrategy strategy{scene};
    direct = run_glitch_fraction(strategy, scene, simulator);
  }
  {
    auto scene = make_scene(false);
    sim::Simulator simulator;
    baseline::FixedBeamStrategy strategy{scene};
    // Break the fixed beam by moving the player after setup.
    scene.headset().node().set_position({2.2, 3.4});
    fixed = run_glitch_fraction(strategy, scene, simulator);
  }

  EXPECT_LT(movr, 0.15);
  EXPECT_LT(movr, dual);
  // Dual antennas rescue the head turn but not the hand raises.
  EXPECT_LE(dual, direct + 1e-9);
  EXPECT_GT(direct, 0.3);
  EXPECT_GT(fixed, 0.9);
}

TEST(Headline, NlosSweepCannotRescueVrRate) {
  auto scene = make_scene(false);
  sim::Simulator simulator;
  baseline::NlosSweepStrategy strategy{simulator, scene};
  // Permanent hand blockage.
  scene.room().add_obstacle(channel::make_hand(
      scene.headset().node().position(),
      scene.ap().node().position() - scene.headset().node().position()));
  strategy.on_frame();
  simulator.run();  // let the sweep settle on the best NLOS beam
  const double snr = strategy.on_frame().value();
  EXPECT_LT(phy::rate_mbps(rf::Decibels{snr}), vr::kHtcVive.required_mbps());
}

}  // namespace
}  // namespace movr
