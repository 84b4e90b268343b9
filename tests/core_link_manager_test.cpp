#include <core/link_manager.hpp>

#include <gtest/gtest.h>

#include <array>

#include <core/beam_tracker.hpp>
#include <core/gain_control.hpp>
#include <geom/angle.hpp>

namespace movr::core {
namespace {

using movr::geom::Vec2;
using movr::geom::deg_to_rad;

struct Fixture {
  Scene scene;
  MovrReflector& reflector;
  sim::Simulator simulator;

  Fixture()
      : scene{channel::Room{5.0, 5.0},
              ApRadio{{0.4, 0.4}, deg_to_rad(45.0)},
              HeadsetRadio{{3.0, 2.0}, 0.0}},
        reflector{scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0))} {
    // Reflector calibrated (as angle search + gain control would leave it).
    calibrate(reflector);
  }

  void calibrate(MovrReflector& r) {
    std::mt19937_64 rng{99};
    scene.calibrate_reflector(r, rng);
  }

  void block_direct() {
    scene.room().add_obstacle(channel::make_hand(
        scene.headset().node().position(),
        scene.ap().node().position() - scene.headset().node().position()));
  }
  void unblock() { scene.room().remove_obstacles("hand"); }

  /// Runs `frames` at 90 Hz through the manager; returns last true SNR.
  rf::Decibels run_frames(LinkManager& manager, int frames) {
    rf::Decibels last{0.0};
    for (int i = 0; i < frames; ++i) {
      last = manager.on_frame();
      simulator.run_until(simulator.now() + sim::Duration{11'111'111});
    }
    return last;
  }
};

TEST(BeamTracker, AimsWithinADegree) {
  Fixture f;
  std::mt19937_64 rng{1};
  f.reflector.front_end().steer_tx(deg_to_rad(40.0));  // badly off
  const auto result = BeamTracker::retarget(f.scene, f.reflector, rng);
  const double truth = f.scene.true_reflector_angle_to_headset(f.reflector);
  EXPECT_LE(movr::geom::rad_to_deg(
                movr::geom::angular_distance(result.reflector_tx_angle, truth)),
            1.0);
  EXPECT_EQ(result.bt_commands, 1);
  EXPECT_LT(sim::to_milliseconds(result.duration), 15.0);
}

TEST(BeamTracker, RefinementNeverWorse) {
  Fixture f;
  f.scene.aim_via(f.reflector);
  std::mt19937_64 rng1{2};
  std::mt19937_64 rng2{2};
  BeamTracker::Config plain;
  BeamTracker::Config refined;
  refined.refine = true;
  const auto p = BeamTracker::retarget(f.scene, f.reflector, rng1, plain);
  const auto r = BeamTracker::retarget(f.scene, f.reflector, rng2, refined);
  EXPECT_GE(r.snr.value(), p.snr.value() - 0.5);
  EXPECT_GT(r.bt_commands, p.bt_commands);
}

TEST(LinkManager, StaysDirectWhenClear) {
  Fixture f;
  LinkManager manager{f.simulator, f.scene, std::mt19937_64{3}};
  const rf::Decibels snr = f.run_frames(manager, 30);
  EXPECT_EQ(manager.mode(), LinkManager::Mode::kDirect);
  EXPECT_EQ(manager.stats().handovers_to_reflector, 0);
  EXPECT_GT(snr.value(), 18.0);
}

TEST(LinkManager, HandsOverOnBlockage) {
  Fixture f;
  LinkManager manager{f.simulator, f.scene, std::mt19937_64{4}};
  f.run_frames(manager, 10);
  ASSERT_EQ(manager.mode(), LinkManager::Mode::kDirect);
  f.block_direct();
  const rf::Decibels after = f.run_frames(manager, 20);
  EXPECT_EQ(manager.mode(), LinkManager::Mode::kViaReflector);
  EXPECT_EQ(manager.stats().handovers_to_reflector, 1);
  // Via the reflector the SNR is back to VR-grade despite the hand.
  EXPECT_GT(after.value(), 18.0);
}

TEST(LinkManager, RecoversToDirect) {
  Fixture f;
  LinkManager manager{f.simulator, f.scene, std::mt19937_64{5}};
  f.run_frames(manager, 5);
  f.block_direct();
  f.run_frames(manager, 20);
  ASSERT_EQ(manager.mode(), LinkManager::Mode::kViaReflector);
  f.unblock();
  f.run_frames(manager, 60);  // probes run at 100 ms cadence
  EXPECT_EQ(manager.mode(), LinkManager::Mode::kDirect);
  EXPECT_EQ(manager.stats().handovers_to_direct, 1);
  EXPECT_GT(manager.stats().time_on_reflector, sim::Duration::zero());
}

TEST(LinkManager, HandoverWithinAFewFrames) {
  Fixture f;
  LinkManager manager{f.simulator, f.scene, std::mt19937_64{6}};
  f.run_frames(manager, 5);
  f.block_direct();
  int frames_to_recover = 0;
  for (int i = 0; i < 30; ++i) {
    const rf::Decibels snr = manager.on_frame();
    f.simulator.run_until(f.simulator.now() + sim::Duration{11'111'111});
    ++frames_to_recover;
    if (snr.value() > 18.0) {
      break;
    }
  }
  // Degradation detection (2-3 frames) + one BT exchange (~1 frame).
  EXPECT_LE(frames_to_recover, 8);
}

TEST(LinkManager, RetargetsWhenPlayerWalks) {
  Fixture f;
  LinkManager manager{f.simulator, f.scene, std::mt19937_64{7}};
  f.run_frames(manager, 5);
  f.block_direct();
  f.run_frames(manager, 15);
  ASSERT_EQ(manager.mode(), LinkManager::Mode::kViaReflector);
  // Walk far enough that the reflector's ~10 degree beam misses.
  f.unblock();  // hand stays down while walking...
  f.block_direct();  // ...but re-block relative to the new position below
  f.scene.headset().node().set_position({1.5, 3.5});
  f.run_frames(manager, 10);
  EXPECT_GT(manager.stats().retargets, 0);
}

TEST(LinkManager, NoReflectorMeansNoHandover) {
  Scene scene{channel::Room{5.0, 5.0}, ApRadio{{0.4, 0.4}, deg_to_rad(45.0)},
              HeadsetRadio{{3.0, 2.0}, 0.0}};
  sim::Simulator simulator;
  LinkManager manager{simulator, scene, std::mt19937_64{8}};
  scene.room().add_obstacle(channel::make_hand(
      scene.headset().node().position(),
      scene.ap().node().position() - scene.headset().node().position()));
  for (int i = 0; i < 20; ++i) {
    manager.on_frame();
    simulator.run_until(simulator.now() + sim::Duration{11'111'111});
  }
  EXPECT_EQ(manager.mode(), LinkManager::Mode::kDirect);
  EXPECT_EQ(manager.stats().handovers_to_reflector, 0);
}

TEST(LinkManager, PicksBestOfTwoReflectors) {
  Fixture f;
  // A second reflector much closer to the action.
  auto& near_reflector = f.scene.add_reflector({4.6, 0.4}, deg_to_rad(135.0));
  f.calibrate(near_reflector);

  LinkManager manager{f.simulator, f.scene, std::mt19937_64{9}};
  f.run_frames(manager, 5);
  f.block_direct();
  const rf::Decibels snr = f.run_frames(manager, 20);
  EXPECT_EQ(manager.mode(), LinkManager::Mode::kViaReflector);
  EXPECT_GT(snr.value(), 18.0);
}

// --- Proactive (forecast-driven) path ---------------------------------

LinkRiskWindow confident_window(sim::TimePoint now, double confidence = 0.9) {
  LinkRiskWindow window;
  window.t_start = now + std::chrono::milliseconds{20};
  window.t_end = now + std::chrono::milliseconds{60};
  window.confidence = confidence;
  return window;
}

TEST(LinkManager, ProactiveHandoverOnConfidentWindows) {
  Fixture f;
  LinkManager manager{f.simulator, f.scene, std::mt19937_64{4}};
  f.run_frames(manager, 3);
  ASSERT_EQ(manager.mode(), LinkManager::Mode::kDirect);

  // Hysteresis: one confident window is not enough...
  manager.on_risk_window(confident_window(f.simulator.now()));
  EXPECT_EQ(manager.mode(), LinkManager::Mode::kDirect);
  // ...the second consecutive one acts, before any SNR has degraded.
  manager.on_risk_window(confident_window(f.simulator.now()));
  EXPECT_EQ(manager.mode(), LinkManager::Mode::kHandoverPending);
  EXPECT_EQ(manager.stats().proactive_handovers, 1);
  EXPECT_EQ(manager.stats().risk_windows, 1);
  EXPECT_TRUE(manager.risk_active());

  // The BT exchange completes and the link rides the reflector.
  f.run_frames(manager, 3);
  EXPECT_EQ(manager.mode(), LinkManager::Mode::kViaReflector);
}

TEST(LinkManager, LowConfidenceWindowsIgnored) {
  Fixture f;
  LinkManager manager{f.simulator, f.scene, std::mt19937_64{4}};
  f.run_frames(manager, 3);
  for (int i = 0; i < 10; ++i) {
    manager.on_risk_window(confident_window(f.simulator.now(), 0.3));
  }
  EXPECT_EQ(manager.mode(), LinkManager::Mode::kDirect);
  EXPECT_EQ(manager.stats().risk_windows, 0);
  EXPECT_EQ(manager.stats().proactive_handovers, 0);
  EXPECT_FALSE(manager.risk_active());
}

TEST(LinkManager, ProactiveBudgetBoundsThrash) {
  // A forecaster gone insane emits a confident window every frame, forever.
  // Overlapping windows merge into one contiguous risk period with ONE
  // proactive handover — even after the manager probes its way back to
  // direct mid-period, the spent budget keeps it there.
  Fixture f;
  LinkManager manager{f.simulator, f.scene, std::mt19937_64{4}};
  f.run_frames(manager, 3);
  for (int i = 0; i < 90; ++i) {
    manager.on_risk_window(confident_window(f.simulator.now()));
    f.run_frames(manager, 1);
  }
  EXPECT_EQ(manager.stats().risk_windows, 1);
  EXPECT_EQ(manager.stats().proactive_handovers, 1);

  // Let the risk period expire, then open a fresh one: new budget (and the
  // proactive cooldown has long passed), so exactly one more fires.
  f.run_frames(manager, 10);
  ASSERT_FALSE(manager.risk_active());
  ASSERT_EQ(manager.mode(), LinkManager::Mode::kDirect);
  manager.on_risk_window(confident_window(f.simulator.now()));
  manager.on_risk_window(confident_window(f.simulator.now()));
  EXPECT_EQ(manager.stats().risk_windows, 2);
  EXPECT_EQ(manager.stats().proactive_handovers, 2);
}

TEST(LinkManager, ProactiveCooldownSpacesBackToBackWindows) {
  // Fresh windows arriving right after the previous period expired are a
  // new period (new budget), but the cooldown still spaces the handovers.
  LinkManager::Config config;
  config.proactive_cooldown = std::chrono::seconds{3600};  // effectively inf
  Fixture f;
  LinkManager manager{f.simulator, f.scene, std::mt19937_64{4}, config};
  f.run_frames(manager, 3);
  manager.on_risk_window(confident_window(f.simulator.now()));
  manager.on_risk_window(confident_window(f.simulator.now()));
  EXPECT_EQ(manager.stats().proactive_handovers, 1);
  // Expire, recover to direct (3 good probes at 100 ms), reopen: budget is
  // fresh but the cooldown blocks the second proactive handover.
  f.run_frames(manager, 40);
  ASSERT_FALSE(manager.risk_active());
  ASSERT_EQ(manager.mode(), LinkManager::Mode::kDirect);
  manager.on_risk_window(confident_window(f.simulator.now()));
  manager.on_risk_window(confident_window(f.simulator.now()));
  EXPECT_EQ(manager.stats().risk_windows, 2);
  EXPECT_EQ(manager.stats().proactive_handovers, 1);
}

TEST(LinkManager, SpeculativeAltSnrLeavesSteeringUntouched) {
  Fixture f;
  LinkManager manager{f.simulator, f.scene, std::mt19937_64{4}};
  f.run_frames(manager, 3);
  ASSERT_EQ(manager.mode(), LinkManager::Mode::kDirect);

  // Direct mode: the alternate is the calibrated reflector's relay.
  const double ap_before = f.scene.ap().node().array().steering();
  const double hs_before = f.scene.headset().node().array().steering();
  const auto alt = manager.speculative_alt_snr();
  ASSERT_TRUE(alt.has_value());
  EXPECT_GT(alt->value(), 10.0);  // a usable hot spare, not noise
  EXPECT_EQ(f.scene.ap().node().array().steering(), ap_before);
  EXPECT_EQ(f.scene.headset().node().array().steering(), hs_before);

  // Via-reflector mode: the alternate is the (blocked) direct beam.
  f.block_direct();
  f.run_frames(manager, 20);
  ASSERT_EQ(manager.mode(), LinkManager::Mode::kViaReflector);
  const auto direct_alt = manager.speculative_alt_snr();
  ASSERT_TRUE(direct_alt.has_value());
  EXPECT_LT(direct_alt->value(), alt->value());  // it IS blocked
}

TEST(LinkManager, ProbesKeepTheLiveBeams) {
  // Probes are what-ifs. Both speculative branches and the direct probe
  // made every probe_interval on a reflector must leave the AP's beam and
  // the headset's beam, its mounting included, as the live link aimed them.
  Fixture f;
  LinkManager manager{f.simulator, f.scene, std::mt19937_64{4}};
  auto& ap = f.scene.ap().node();
  auto& headset = f.scene.headset().node();
  const auto beams = [&] {
    return std::array<double, 3>{ap.array().steering(),
                                 headset.orientation(),
                                 headset.array().steering()};
  };
  f.run_frames(manager, 3);
  ASSERT_EQ(manager.mode(), LinkManager::Mode::kDirect);
  auto live = beams();
  ASSERT_TRUE(manager.speculative_alt_snr().has_value());  // the relay
  EXPECT_EQ(beams(), live);

  f.block_direct();
  f.run_frames(manager, 20);
  ASSERT_EQ(manager.mode(), LinkManager::Mode::kViaReflector);
  live = beams();
  ASSERT_TRUE(manager.speculative_alt_snr().has_value());  // the direct beam
  EXPECT_EQ(beams(), live);

  // 30 frames on the reflector hold three direct probes.
  const double facing_reflector =
      (f.reflector.position() - headset.position()).heading();
  for (int frame = 0; frame < 30; ++frame) {
    f.run_frames(manager, 1);
    ASSERT_EQ(manager.mode(), LinkManager::Mode::kViaReflector);
    EXPECT_EQ(headset.orientation(), facing_reflector) << "frame " << frame;
  }
}

}  // namespace
}  // namespace movr::core
