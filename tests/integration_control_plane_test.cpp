// End-to-end hardened control plane: a scripted control partition while the
// link rides a reflector must (1) trip the reflector's autonomous safe mode
// within one watchdog period, (2) bench the reflector and land the session
// in degraded mode — without flapping back onto a reflector the AP cannot
// command — and (3) reconcile automatically once the partition heals:
// divergence detected by the state digest, epoch replayed, full gain
// restored, link back on the reflector.
#include <gtest/gtest.h>

#include <core/config_epoch.hpp>
#include <core/movr.hpp>
#include <geom/angle.hpp>
#include <sim/fault_injector.hpp>
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

core::ConfigEpoch epoch_from_registers(const core::MovrReflector& r) {
  return {r.front_end().rx_array().steering(),
          r.front_end().tx_array().steering(), r.front_end().gain_code()};
}

TEST(ControlPlaneIntegration, PartitionSafeModeDegradedThenReconciled) {
  Scene scene = make_scene();
  auto& reflector = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0));
  calibrate(scene, reflector);

  sim::Simulator simulator;
  sim::ControlChannel::Config channel_config;
  channel_config.jitter = sim::Duration{0};
  sim::ControlChannel control{simulator, channel_config, std::mt19937_64{3}};

  // Register writes model BT exchanges: none may cross a partition.
  core::LinkManager::Config manager_config;
  manager_config.reflector_reachable = [&control](std::size_t) {
    return !control.partitioned();
  };
  vr::MovrStrategy strategy{simulator, scene, std::mt19937_64{6},
                            manager_config};

  core::ReflectorConfigAgent agent{simulator, control, reflector, {},
                                   std::mt19937_64{8}};
  agent.start();
  core::ControlPlane plane{simulator, control, {}};
  plane.bind_health(&strategy.manager().health());
  plane.manage(0, reflector, &agent);
  plane.start();
  plane.commit(0, epoch_from_registers(reflector));

  sim::FaultInjector injector{simulator};
  injector.inject_control_partition(control, sim::TimePoint{2s}, 2s);

  const auto frame = [&] {
    strategy.on_frame();
    simulator.run_until(simulator.now() + sim::Duration{11'111'111});
  };
  const auto run_frames_until = [&](sim::TimePoint t) {
    while (simulator.now() < t) {
      frame();
    }
  };

  // Settle onto the direct path, block it, ride the reflector.
  run_frames_until(sim::TimePoint{200ms});
  block_direct(scene);
  run_frames_until(sim::TimePoint{1s});
  ASSERT_EQ(strategy.manager().mode(),
            core::LinkManager::Mode::kViaReflector);
  const std::uint32_t calibrated_gain = reflector.front_end().gain_code();
  ASSERT_GT(calibrated_gain, agent.safe_gain_code());
  ASSERT_FALSE(agent.in_safe_mode());

  // --- inside the partition -------------------------------------------
  // Safe-mode guarantee: gain at/below the provably-stable floor within
  // silence_timeout + one watchdog period of the partition onset.
  run_frames_until(sim::TimePoint{2s} + sim::Duration{400'000'000} +
                   sim::Duration{200'000'000});
  EXPECT_TRUE(agent.in_safe_mode());
  EXPECT_LE(reflector.front_end().gain_code(), agent.safe_gain_code());

  // Partition detected: the reflector is benched and the session lands in
  // degraded mode (direct is blocked, the only reflector is unreachable) —
  // and STAYS there; no flapping back onto the unreachable reflector.
  run_frames_until(sim::TimePoint{3s});
  EXPECT_TRUE(plane.partitioned(0));
  EXPECT_TRUE(strategy.manager().health().quarantined(0));
  EXPECT_EQ(strategy.manager().mode(), core::LinkManager::Mode::kDegraded);
  bool flapped = false;
  while (simulator.now() < sim::TimePoint{4s}) {
    frame();
    flapped |= strategy.manager().mode() ==
               core::LinkManager::Mode::kViaReflector;
  }
  EXPECT_FALSE(flapped);

  // --- after the heal --------------------------------------------------
  run_frames_until(sim::TimePoint{6s});
  EXPECT_FALSE(plane.partitioned(0));
  EXPECT_FALSE(agent.in_safe_mode());
  EXPECT_EQ(reflector.front_end().gain_code(), calibrated_gain);
  EXPECT_EQ(strategy.manager().mode(),
            core::LinkManager::Mode::kViaReflector);
  EXPECT_EQ(plane.divergence_age(0, simulator.now()), sim::Duration{0});

  const core::ControlPlaneIncidents incidents = plane.incidents();
  EXPECT_GE(incidents.partitions_entered, 1u);
  EXPECT_GE(incidents.partitions_healed, 1u);
  EXPECT_GE(incidents.safe_mode_entries, 1u);
  EXPECT_GE(incidents.divergences_detected, 1u);
  EXPECT_GE(incidents.reconciliations, 1u);
  EXPECT_GE(strategy.manager().health().stats().divergences, 1);
}

TEST(ControlPlaneIntegration, SessionReportCarriesIncidentCounters) {
  Scene scene = make_scene();
  auto& reflector = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0));
  calibrate(scene, reflector);

  sim::Simulator simulator;
  sim::ControlChannel control{simulator, {}, std::mt19937_64{3}};
  vr::MovrStrategy strategy{simulator, scene, std::mt19937_64{6}};
  core::ReflectorConfigAgent agent{simulator, control, reflector, {},
                                   std::mt19937_64{8}};
  agent.start();
  core::ControlPlane plane{simulator, control, {}};
  plane.bind_health(&strategy.manager().health());
  plane.manage(0, reflector, &agent);
  plane.start();
  plane.commit(0, epoch_from_registers(reflector));

  sim::FaultInjector injector{simulator};
  injector.inject_control_partition(control, sim::TimePoint{1s}, 1s);

  vr::Session::Config config;
  config.duration = 3s;
  config.faults = &injector;
  config.control_plane = &plane;
  vr::Session session{simulator, scene, strategy, nullptr, nullptr, config};
  const auto report = session.run();

  ASSERT_TRUE(report.control_plane.has_value());
  EXPECT_GE(report.control_plane->partitions_entered, 1u);
  EXPECT_GE(report.control_plane->partitions_healed, 1u);
}

}  // namespace
}  // namespace movr
