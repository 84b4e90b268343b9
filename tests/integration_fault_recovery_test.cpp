// End-to-end robustness: scripted faults must leave the control plane
// responsive (watchdogs), bench bad reflectors (quarantine + backoff),
// replay calibration after reboots, and show up in the session's per-fault
// recovery report.
#include <gtest/gtest.h>

#include <string>

#include <core/movr.hpp>
#include <geom/angle.hpp>
#include <sim/fault_injector.hpp>
#include <vr/fault_scenarios.hpp>
#include <vr/session.hpp>

namespace movr {
namespace {

using core::ApRadio;
using core::HeadsetRadio;
using core::Scene;
using geom::deg_to_rad;
using namespace std::chrono_literals;

Scene make_scene() {
  return Scene{channel::Room{5.0, 5.0}, ApRadio{{0.4, 0.4}, deg_to_rad(45.0)},
               HeadsetRadio{{3.0, 2.0}, 0.0}};
}

void calibrate(Scene& scene, core::MovrReflector& r) {
  std::mt19937_64 rng{99};
  scene.calibrate_reflector(r, rng);
}

void block_direct(Scene& scene) {
  scene.room().add_obstacle(channel::make_hand(
      scene.headset().node().position(),
      scene.ap().node().position() - scene.headset().node().position()));
}

TEST(FaultRecovery, TotalBrownoutAbortsIncidenceSearchEarly) {
  Scene scene = make_scene();
  auto& reflector = scene.add_reflector({3.4, 4.8}, deg_to_rad(262.0));
  sim::Simulator simulator;
  sim::ControlChannel control{simulator, {}, std::mt19937_64{3}};
  control.attach(reflector.control_name(),
                 [&](const sim::ControlMessage& m) { reflector.handle(m); });

  // Scripted 100%-loss brownout covering the whole attempt.
  sim::FaultInjector injector{simulator};
  injector.inject_control_brownout(control, sim::TimePoint{0}, 10s,
                                   /*extra_loss=*/1.0,
                                   /*extra_latency=*/sim::Duration::zero());

  auto config = core::make_search_config(2.0);
  config.watchdog = 500ms;
  config.abort_after_failed_commands = 5;
  core::IncidenceResult result;
  core::IncidenceSearch search{simulator, control, scene, reflector, config,
                               std::mt19937_64{5}};
  search.start([&](const core::IncidenceResult& r) { result = r; });
  simulator.run();

  // The search ALWAYS completes — unsuccessfully, with a reason, and well
  // inside the watchdog deadline (the consecutive-failure abort fires much
  // earlier than the 500 ms backstop).
  EXPECT_FALSE(result.completed);
  EXPECT_NE(result.failure_reason.find("control channel"), std::string::npos);
  EXPECT_LE(result.duration, config.watchdog);
  EXPECT_EQ(control.stats().sent, control.stats().delivered +
                                      control.stats().dropped +
                                      control.stats().undeliverable);
}

TEST(FaultRecovery, WatchdogBoundsReflectionSearch) {
  Scene scene = make_scene();
  auto& reflector = scene.add_reflector({3.4, 4.8}, deg_to_rad(262.0));
  sim::Simulator simulator;
  sim::ControlChannel control{simulator, {}, std::mt19937_64{7}};
  control.attach(reflector.control_name(),
                 [&](const sim::ControlMessage& m) { reflector.handle(m); });

  sim::FaultInjector injector{simulator};
  injector.inject_control_brownout(control, sim::TimePoint{0}, 10s,
                                   /*extra_loss=*/1.0,
                                   /*extra_latency=*/sim::Duration::zero());

  auto config = core::make_search_config(1.0);
  config.watchdog = 150ms;
  config.abort_after_failed_commands = 1 << 30;  // watchdog path only
  core::ReflectionResult result;
  bool fired = false;
  core::ReflectionSearch search{simulator, control, scene, reflector, config,
                                std::mt19937_64{9}};
  search.start([&](const core::ReflectionResult& r) {
    result = r;
    fired = true;
  });
  simulator.run();

  ASSERT_TRUE(fired);
  EXPECT_FALSE(result.completed);
  EXPECT_NE(result.failure_reason.find("watchdog"), std::string::npos);
  EXPECT_EQ(result.duration, config.watchdog);
  // The watchdog's handler cancels its own id; run() must still drain the
  // queue, so the brownout's 10 s clear runs.
  EXPECT_TRUE(injector.timeline().front().cleared);
}

// Both alignment phases end the same way: under a total brownout each gives
// up exactly once, on the unacked-command abort well before a long
// watchdog, or, with the abort disabled, on the watchdog itself.
template <class Search>
class SearchTermination : public ::testing::Test {
 protected:
  struct Ending {
    int callbacks{0};
    bool completed{true};
    std::string reason;
    sim::Duration duration{0};
  };

  static Ending run_under_brownout(sim::Duration watchdog,
                                   int abort_after_failed_commands) {
    Scene scene = make_scene();
    auto& reflector = scene.add_reflector({3.4, 4.8}, deg_to_rad(262.0));
    sim::Simulator simulator;
    sim::ControlChannel control{simulator, {}, std::mt19937_64{3}};
    control.attach(reflector.control_name(),
                   [&](const sim::ControlMessage& m) { reflector.handle(m); });
    sim::FaultInjector injector{simulator};
    injector.inject_control_brownout(control, sim::TimePoint{0}, 60s,
                                     /*extra_loss=*/1.0,
                                     /*extra_latency=*/sim::Duration::zero());

    auto config = core::make_search_config(1.0);
    config.watchdog = watchdog;
    config.abort_after_failed_commands = abort_after_failed_commands;
    Ending ending;
    Search search{simulator, control, scene, reflector, config,
                  std::mt19937_64{5}};
    search.start([&](const auto& result) {
      ++ending.callbacks;
      ending.completed = result.completed;
      ending.reason = result.failure_reason;
      ending.duration = result.duration;
    });
    simulator.run();
    return ending;
  }
};

using AlignmentPhases =
    ::testing::Types<core::IncidenceSearch, core::ReflectionSearch>;
TYPED_TEST_SUITE(SearchTermination, AlignmentPhases);

TYPED_TEST(SearchTermination, TotalBrownoutAbortsOnceBeforeTheWatchdog) {
  const sim::Duration watchdog = 30s;
  const auto ending = this->run_under_brownout(watchdog, 5);
  EXPECT_EQ(ending.callbacks, 1);
  EXPECT_FALSE(ending.completed);
  EXPECT_NE(ending.reason.find("control channel"), std::string::npos);
  EXPECT_LT(ending.duration, watchdog);
}

TYPED_TEST(SearchTermination, WithoutTheAbortTheWatchdogEndsIt) {
  const sim::Duration watchdog = 150ms;
  const auto ending = this->run_under_brownout(watchdog, 1 << 30);
  EXPECT_EQ(ending.callbacks, 1);
  EXPECT_FALSE(ending.completed);
  EXPECT_NE(ending.reason.find("watchdog"), std::string::npos);
  EXPECT_EQ(ending.duration, watchdog);
}

TEST(FaultRecovery, HandoverTimeoutQuarantinesTargetAndDegrades) {
  Scene scene = make_scene();
  auto& reflector = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0));
  calibrate(scene, reflector);
  sim::Simulator simulator;

  core::LinkManager::Config config;
  // Timeout shorter than the Bluetooth exchange: every commit loses the
  // race, deterministically exercising the timeout path.
  config.handover_timeout = 5ms;
  ASSERT_LT(config.handover_timeout, config.bt_wait);
  core::LinkManager manager{simulator, scene, std::mt19937_64{4}, config};

  for (int i = 0; i < 10; ++i) {
    manager.on_frame();
    simulator.run_until(simulator.now() + sim::Duration{11'111'111});
  }
  ASSERT_EQ(manager.mode(), core::LinkManager::Mode::kDirect);
  block_direct(scene);
  for (int i = 0; i < 40; ++i) {
    manager.on_frame();
    simulator.run_until(simulator.now() + sim::Duration{11'111'111});
  }

  // Never made it onto the reflector; the target was benched and, with the
  // direct path blocked and nothing usable, the link entered degraded mode.
  EXPECT_EQ(manager.stats().handovers_to_reflector, 0);
  EXPECT_GE(manager.stats().failed_handovers, 1);
  EXPECT_GE(manager.health().stats().quarantines, 1);
  EXPECT_GE(manager.stats().degraded_entries, 1);
  EXPECT_NE(manager.mode(), core::LinkManager::Mode::kViaReflector);
}

TEST(FaultRecovery, RebootQuarantineRecalibrateRestore) {
  Scene scene = make_scene();
  auto& reflector = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0));
  calibrate(scene, reflector);
  sim::Simulator simulator;
  core::LinkManager manager{simulator, scene, std::mt19937_64{5}};

  // Get onto the reflector first.
  for (int i = 0; i < 5; ++i) {
    manager.on_frame();
    simulator.run_until(simulator.now() + sim::Duration{11'111'111});
  }
  block_direct(scene);
  for (int i = 0; i < 20; ++i) {
    manager.on_frame();
    simulator.run_until(simulator.now() + sim::Duration{11'111'111});
  }
  ASSERT_EQ(manager.mode(), core::LinkManager::Mode::kViaReflector);

  // Power loss: registers wiped, boot epoch bumped, calibration gone.
  reflector.power_cycle();
  EXPECT_EQ(reflector.front_end().gain_code(), 0u);

  // Supervised recovery: bad via-SNR -> quarantine -> backoff re-probe
  // detects the reboot (epoch mismatch) -> stored calibration replayed ->
  // restored onto the reflector. Two 200 ms backoff rounds + frames.
  rf::Decibels last{-300.0};
  bool restored = false;
  for (int i = 0; i < 120 && !restored; ++i) {
    last = manager.on_frame();
    simulator.run_until(simulator.now() + sim::Duration{11'111'111});
    restored = manager.mode() == core::LinkManager::Mode::kViaReflector &&
               manager.health().stats().recalibrations > 0;
  }

  EXPECT_TRUE(restored);
  EXPECT_EQ(manager.health().stats().reboots_detected, 1);
  EXPECT_EQ(manager.health().stats().recalibrations, 1);
  EXPECT_GE(manager.health().stats().restored, 1);
  EXPECT_GE(manager.stats().degraded_entries, 1);
  // The replayed calibration brings the via-link back to VR-grade SNR.
  for (int i = 0; i < 5; ++i) {
    last = manager.on_frame();
    simulator.run_until(simulator.now() + sim::Duration{11'111'111});
  }
  EXPECT_EQ(manager.mode(), core::LinkManager::Mode::kViaReflector);
  EXPECT_GT(last.value(), 18.0);
}

TEST(FaultRecovery, SessionReportsPerFaultRecovery) {
  Scene scene = make_scene();
  auto& reflector = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0));
  calibrate(scene, reflector);
  sim::Simulator simulator;
  sim::FaultInjector injector{simulator};

  // Fault 1: the player's hand blocks LOS for 1.5 s starting at t = 1 s.
  injector.inject(
      "hand_blockage", sim::TimePoint{1s}, 1500ms,
      [&scene] { block_direct(scene); },
      [&scene] { scene.room().remove_obstacles("hand"); });
  // Fault 2: the reflector reboots mid-blockage, while the link rides it.
  vr::add_reflector_reboot(injector, reflector, sim::TimePoint{1500ms});

  vr::MovrStrategy strategy{simulator, scene, std::mt19937_64{6}};
  vr::Session::Config config;
  config.duration = 4s;
  config.faults = &injector;
  vr::Session session{simulator, scene, strategy, nullptr, nullptr, config};
  const auto report = session.run();

  ASSERT_EQ(report.fault_recovery.size(), 2u);
  const auto& blockage = report.fault_recovery[0];
  EXPECT_EQ(blockage.fault, "hand_blockage");
  EXPECT_GT(blockage.glitched_frames, 0u);  // handover isn't instant
  EXPECT_TRUE(blockage.recovered);
  EXPECT_LE(blockage.time_to_recover, 500ms);  // one handover, a few frames

  const auto& reboot = report.fault_recovery[1];
  EXPECT_TRUE(reboot.recovered);
  // Quarantine + two backoff rounds + recalibration replay, well inside
  // the remaining blockage window.
  EXPECT_LE(reboot.time_to_recover, 1200ms);
  EXPECT_GE(strategy.manager().health().stats().recalibrations, 1);
}

}  // namespace
}  // namespace movr
