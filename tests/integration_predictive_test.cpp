// Integration tests for the predictive link-control tier: forecast-driven
// proactive handover, speculative dual-path reception, and — the point —
// misprediction containment under garbage pose input.
#include <gtest/gtest.h>

#include <algorithm>

#include <core/gain_control.hpp>
#include <geom/angle.hpp>
#include <sim/fault_injector.hpp>
#include <vr/fault_scenarios.hpp>
#include <vr/motion.hpp>
#include <vr/predictive.hpp>
#include <vr/session.hpp>

namespace movr::vr {
namespace {

using movr::geom::Vec2;
using movr::geom::deg_to_rad;
using namespace std::chrono_literals;

/// Empty office, AP in the corner, a person standing on the shadow line,
/// one calibrated reflector on the far wall.
struct World {
  core::Scene scene;
  core::MovrReflector& reflector;

  explicit World(Vec2 headset_start)
      : scene{channel::Room{5.0, 5.0},
              core::ApRadio{{0.4, 0.4}, deg_to_rad(45.0)},
              core::HeadsetRadio{headset_start, 0.0}},
        reflector{scene.add_reflector({3.6, 4.8}, deg_to_rad(265.0))} {
    scene.aim_direct();
    std::mt19937_64 rng{5};
    scene.calibrate_reflector(reflector, rng);
    scene.ap().node().steer_toward(scene.headset().node().position());
  }
};

/// The standing person whose shadow the pacing headset crosses.
BlockageScript standing_person(sim::Duration duration) {
  BlockageEvent person;
  person.kind = BlockageEvent::Kind::kPersonCrossing;
  person.start = sim::TimePoint{};
  person.duration = duration;
  person.path_from = {1.7, 1.3};
  person.path_to = {1.7, 1.3};
  return BlockageScript{std::vector<BlockageEvent>{person}};
}

/// Pacing line perpendicular to the AP->person ray through {3.03, 2.22}.
PacingMotion crossing_motion() {
  const Vec2 a{3.69, 1.28};
  const Vec2 b{2.37, 3.16};
  PacingMotion::Config config;
  config.speed_mps = 1.2;
  config.pause = 200ms;
  return PacingMotion{a, b, config};
}

Session::Config transport_config(sim::Duration duration,
                                 const sim::FaultInjector* faults = nullptr) {
  Session::Config config;
  config.duration = duration;
  config.faults = faults;
  net::TransportConfig transport;
  transport.source.target_mbps = 800.0;
  transport.ack_delay = std::chrono::microseconds{500};
  transport.arq.window = 16;
  transport.adaptive_fec = true;
  config.transport = transport;
  return config;
}

TEST(PredictiveIntegration, ForecastsAndHandsOverBeforeBlockage) {
  World world{{3.69, 1.28}};
  sim::Simulator simulator;
  PredictiveMovrStrategy strategy{simulator, world.scene, std::mt19937_64{3}};
  PacingMotion motion = crossing_motion();
  const auto duration = sim::from_seconds(4.0);
  const auto script = standing_person(duration);
  Session session{simulator,        world.scene, strategy,
                  &motion,          &script,     transport_config(duration)};
  const QoeReport report = session.run();

  ASSERT_TRUE(report.predictive.has_value());
  const PredictiveLinkStats& p = *report.predictive;
  // The pacing trajectory crosses the shadow: windows were forecast, the
  // proactive path acted, and none of it was a false alarm.
  EXPECT_GT(p.risk_windows, 0);
  EXPECT_GT(p.proactive_handovers, 0);
  EXPECT_EQ(p.mispredictions, 0);
  EXPECT_EQ(p.chaos_garbled, 0);
  // Speculation actually flew packets on the alternate beam.
  ASSERT_TRUE(report.transport.has_value());
  EXPECT_GT(report.transport->speculative_enqueued, 0u);
  EXPECT_TRUE(report.transport->conserved());
}

TEST(PredictiveIntegration, PoseBiasDriftIsContained) {
  // The misprediction fault: the tracking system's pose estimate drifts
  // diagonally up to 1.5 m off truth, feeding the forecaster garbage
  // trajectories for most of the session. Containment means (a) the
  // proactive-handover budget holds — bounded thrash, (b) the extended
  // ledger (speculative buckets included) still closes, (c) the session
  // is no worse than a purely reactive one in the same world — garbage
  // predictions must degrade to reactive behavior, never below it.
  const auto duration = sim::from_seconds(4.0);
  const auto script = standing_person(duration);

  // Reactive baseline: same world, motion, blocker, transport seeds — and
  // the same fault *window*. The session stacks fault_extra_loss while any
  // fault is active, so the baseline gets a no-op window with identical
  // timing; the arms then differ only in what the drifting pose does to
  // the predictive tier.
  std::uint64_t reactive_glitched = 0;
  {
    World world{{3.69, 1.28}};
    sim::Simulator simulator;
    MovrStrategy strategy{simulator, world.scene, std::mt19937_64{3}};
    PacingMotion motion = crossing_motion();
    sim::FaultInjector faults{simulator};
    faults.inject("pose_bias_drift_shadow", sim::TimePoint{500ms},
                  sim::from_seconds(3.0), [] {});
    Session session{simulator, world.scene, strategy, &motion, &script,
                    transport_config(duration, &faults)};
    reactive_glitched = session.run().glitched_frames;
  }

  World world{{3.69, 1.28}};
  sim::Simulator simulator;
  PredictiveMovrStrategy strategy{simulator, world.scene, std::mt19937_64{3}};
  PacingMotion motion = crossing_motion();

  sim::FaultInjector faults{simulator};
  add_pose_bias_drift(faults, strategy, sim::TimePoint{500ms},
                      /*duration=*/sim::from_seconds(3.0),
                      /*peak_bias_m=*/1.5, /*tick=*/50ms);

  Session session{simulator, world.scene, strategy, &motion, &script,
                  transport_config(duration, &faults)};

  // The extended ledger must close at every 20 ms check, not just at the
  // end — speculative copies resolve atomically with their primary.
  std::uint64_t checks = 0;
  std::uint64_t violations = 0;
  for (sim::TimePoint t{20ms}; t < sim::TimePoint{duration}; t += 20ms) {
    simulator.at(t, [&checks, &violations, &session] {
      ++checks;
      if (!session.transport()->ledger_closes()) {
        ++violations;
      }
    });
  }
  const QoeReport report = session.run();

  EXPECT_GT(checks, 0u);
  EXPECT_EQ(violations, 0u);
  ASSERT_TRUE(report.transport.has_value());
  EXPECT_TRUE(report.transport->conserved());

  ASSERT_TRUE(report.predictive.has_value());
  const PredictiveLinkStats& p = *report.predictive;
  // Bounded thrash: overlapping windows merge (budget 1 per contiguous
  // period) and the 300 ms cooldown spaces periods, so a 4 s session
  // cannot see more than ~13 proactive handovers even with the forecaster
  // fed garbage every frame.
  EXPECT_LE(p.proactive_handovers, 13);
  // Containment: drifted forecasts cost at most a small epsilon over the
  // reactive baseline (the same epsilon the acceptance bench enforces).
  EXPECT_LE(report.glitched_frames,
            reactive_glitched + std::max<std::uint64_t>(5, report.frames / 50));
}

TEST(PredictiveIntegration, ChaosForecasterIsContained) {
  // Same containment property under the other garbage source: a forecaster
  // whose every answer is inverted (chaos_rate 1.0).
  World world{{3.69, 1.28}};
  sim::Simulator simulator;
  PredictiveMovrStrategy::Config config;
  config.forecaster.chaos_rate = 1.0;
  PredictiveMovrStrategy strategy{simulator, world.scene, std::mt19937_64{3},
                                  config};
  PacingMotion motion = crossing_motion();
  const auto duration = sim::from_seconds(4.0);
  const auto script = standing_person(duration);
  Session session{simulator,        world.scene, strategy,
                  &motion,          &script,     transport_config(duration)};
  const QoeReport report = session.run();

  ASSERT_TRUE(report.predictive.has_value());
  const PredictiveLinkStats& p = *report.predictive;
  EXPECT_GT(p.chaos_garbled, 0);
  EXPECT_LE(p.proactive_handovers, 13);
  ASSERT_TRUE(report.transport.has_value());
  EXPECT_TRUE(report.transport->conserved());
  EXPECT_LT(report.glitched_frames, report.frames / 10);
}

TEST(PredictiveIntegration, ReactiveStrategyReportsNoPredictiveStats) {
  World world{{3.69, 1.28}};
  sim::Simulator simulator;
  MovrStrategy strategy{simulator, world.scene, std::mt19937_64{3}};
  PacingMotion motion = crossing_motion();
  const auto duration = sim::from_seconds(1.0);
  const auto script = standing_person(duration);
  Session session{simulator,        world.scene, strategy,
                  &motion,          &script,     transport_config(duration)};
  const QoeReport report = session.run();
  EXPECT_FALSE(report.predictive.has_value());
  ASSERT_TRUE(report.transport.has_value());
  // No speculation ever armed: the speculative ledger buckets stay zero.
  EXPECT_EQ(report.transport->speculative_enqueued, 0u);
  EXPECT_EQ(report.transport->speculative_dups, 0u);
}

}  // namespace
}  // namespace movr::vr
