// Session-level tests for the opt-in transport data-plane.
#include <vr/session.hpp>

#include <gtest/gtest.h>

#include <baseline/strategies.hpp>
#include <core/gain_control.hpp>
#include <geom/angle.hpp>
#include <sim/fault_injector.hpp>

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

TEST(SessionTransport, DisabledByDefaultAndAbsentFromReport) {
  core::Scene scene = make_scene();
  sim::Simulator simulator;
  baseline::DirectTrackingStrategy strategy{scene};
  Session::Config config;
  config.duration = sim::from_seconds(1.0);
  Session session{simulator, scene, strategy, nullptr, nullptr, config};
  const QoeReport report = session.run();
  EXPECT_FALSE(report.transport.has_value());
}

TEST(SessionTransport, CleanLosDeliversEveryPFrameOnTime) {
  core::Scene scene = make_scene();
  sim::Simulator simulator;
  baseline::DirectTrackingStrategy strategy{scene};
  Session::Config config;
  config.duration = sim::from_seconds(2.0);
  config.transport = net::TransportConfig{};
  Session session{simulator, scene, strategy, nullptr, nullptr, config};
  const QoeReport report = session.run();

  ASSERT_TRUE(report.transport.has_value());
  const net::TransportMetrics& metrics = *report.transport;
  EXPECT_EQ(report.frames, 180u);
  EXPECT_EQ(metrics.frames_emitted, report.frames);
  EXPECT_TRUE(metrics.conserved());
  // A raw Vive stream runs MCS 24 at ~83% utilization, so a 2.5x keyframe
  // needs ~22 ms of air and can never make its 10 ms deadline; the
  // deadline-aware queue sheds it there and protects the P-frames. Exactly
  // the 6 keyframes (GOP 30 over 180 frames) miss, everything else lands.
  EXPECT_EQ(metrics.deadline_misses, 6u);
  EXPECT_EQ(metrics.frames_on_time + metrics.frames_unresolved, 174u);
  EXPECT_EQ(report.glitched_frames, 6u);
  EXPECT_GT(metrics.p50_ms, 0.0);
  EXPECT_LT(metrics.p95_ms,
            sim::to_milliseconds(config.display.latency_budget()));
}

TEST(SessionTransport, DeliverableBitrateHasNoMisses) {
  core::Scene scene = make_scene();
  sim::Simulator simulator;
  baseline::DirectTrackingStrategy strategy{scene};
  Session::Config config;
  config.duration = sim::from_seconds(2.0);
  net::TransportConfig transport;
  // A compressed stream leaves headroom for keyframes: clean LOS delivers
  // every frame at its deadline.
  transport.source.target_mbps = 2000.0;
  config.transport = transport;
  Session session{simulator, scene, strategy, nullptr, nullptr, config};
  const QoeReport report = session.run();

  ASSERT_TRUE(report.transport.has_value());
  const net::TransportMetrics& metrics = *report.transport;
  EXPECT_TRUE(metrics.conserved());
  EXPECT_EQ(metrics.deadline_misses, 0u);
  EXPECT_EQ(metrics.frames_on_time + metrics.frames_unresolved,
            metrics.frames_emitted);
  EXPECT_EQ(report.glitched_frames, 0u);
  EXPECT_LT(metrics.p99_ms,
            sim::to_milliseconds(config.display.latency_budget()));
}

TEST(SessionTransport, BudgetDerivedFromDisplayRequirements) {
  core::Scene scene = make_scene();
  sim::Simulator simulator;
  baseline::DirectTrackingStrategy strategy{scene};
  Session::Config config;
  config.duration = sim::from_seconds(1.0);
  config.transport = net::TransportConfig{};  // target_mbps left at 0
  Session session{simulator, scene, strategy, nullptr, nullptr, config};
  const QoeReport report = session.run();
  ASSERT_TRUE(report.transport.has_value());
  // ~5.6 Gbps at 90 fps is ~7.8 MB per frame; a second of traffic must
  // have moved roughly required_mbps worth of payload.
  const double delivered_mbit =
      static_cast<double>(report.transport->bytes_delivered) * 8.0 / 1e6;
  EXPECT_GT(delivered_mbit, config.display.required_mbps() * 0.8);
}

TEST(SessionTransport, BlockageCausesDeadlineMissesWithoutMovr) {
  core::Scene scene = make_scene();
  sim::Simulator simulator;
  baseline::DirectTrackingStrategy strategy{scene};
  const auto script =
      periodic_hand_raises(sim::from_seconds(0.5), sim::from_seconds(0.5),
                           sim::from_seconds(1.0), sim::from_seconds(2.0));
  Session::Config config;
  config.duration = sim::from_seconds(2.0);
  config.transport = net::TransportConfig{};
  Session session{simulator, scene, strategy, nullptr, &script, config};
  const QoeReport report = session.run();

  ASSERT_TRUE(report.transport.has_value());
  const net::TransportMetrics& metrics = *report.transport;
  EXPECT_TRUE(metrics.conserved());
  EXPECT_GT(metrics.deadline_misses, 0u);
  EXPECT_GT(report.glitch_fraction(), 0.3);
  EXPECT_LT(report.glitch_fraction(), 0.7);
}

TEST(SessionTransport, MovrMissesFewerDeadlinesThanDirect) {
  const auto script =
      periodic_hand_raises(sim::from_seconds(0.5), sim::from_seconds(0.5),
                           sim::from_seconds(1.0), sim::from_seconds(4.0));
  Session::Config config;
  config.duration = sim::from_seconds(4.0);
  config.transport = net::TransportConfig{};

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
  ASSERT_TRUE(direct_report.transport.has_value());
  ASSERT_TRUE(movr_report.transport.has_value());
  EXPECT_TRUE(direct_report.transport->conserved());
  EXPECT_TRUE(movr_report.transport->conserved());
  EXPECT_LT(movr_report.transport->deadline_misses,
            direct_report.transport->deadline_misses / 2);
  // The raw Vive stream saturates p99 for both (keyframes can never make
  // their deadline), so compare the p95 tail instead.
  EXPECT_LT(movr_report.transport->p95_ms, direct_report.transport->p95_ms);
}

TEST(SessionTransport, FaultWindowStacksLossAndForcesRetransmits) {
  Session::Config config;
  config.duration = sim::from_seconds(2.0);
  config.transport = net::TransportConfig{};

  std::uint64_t clean_retx = 0;
  {
    core::Scene scene = make_scene();
    sim::Simulator simulator;
    baseline::DirectTrackingStrategy strategy{scene};
    Session session{simulator, scene, strategy, nullptr, nullptr, config};
    const QoeReport report = session.run();
    clean_retx = report.transport->retransmits;
  }
  std::uint64_t faulted_retx = 0;
  {
    core::Scene scene = make_scene();
    sim::Simulator simulator;
    sim::FaultInjector faults{simulator};
    faults.inject("packet-loss-storm", sim::from_seconds(0.5),
                  sim::from_seconds(1.0), [] {});
    baseline::DirectTrackingStrategy strategy{scene};
    config.faults = &faults;
    Session session{simulator, scene, strategy, nullptr, nullptr, config};
    const QoeReport report = session.run();
    ASSERT_TRUE(report.transport.has_value());
    EXPECT_TRUE(report.transport->conserved());
    faulted_retx = report.transport->retransmits;
  }
  // A 50% loss window over half the session has to retransmit a lot more
  // than the clean run.
  EXPECT_GT(faulted_retx, clean_retx + 100);
}

TEST(SessionTransport, TransportToggleLeavesWorldTrajectoryBitIdentical) {
  // The transport (with burst loss and adaptive FEC) draws from its own
  // dedicated RNG streams, so switching it on must not perturb the world:
  // the MoVR strategy's SNR trajectory — driven by blockage, handover and
  // the link manager's own stream — stays bit-identical frame for frame.
  const auto script =
      periodic_hand_raises(sim::from_seconds(0.4), sim::from_seconds(0.4),
                           sim::from_seconds(0.8), sim::from_seconds(2.0));
  const auto run_once = [&script](bool with_transport) {
    core::Scene scene = make_scene();
    auto& reflector = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0));
    calibrate_reflector(scene, reflector);
    sim::Simulator simulator;
    MovrStrategy strategy{simulator, scene, std::mt19937_64{3}};
    Session::Config config;
    config.duration = sim::from_seconds(2.0);
    if (with_transport) {
      net::TransportConfig transport;
      transport.source.target_mbps = 2000.0;
      transport.adaptive_fec = true;
      config.transport = transport;
      config.burst_loss = sim::BurstChannel::Config{};
    }
    Session session{simulator, scene, strategy, nullptr, &script, config};
    return session.run();
  };
  const QoeReport legacy = run_once(false);
  const QoeReport transported = run_once(true);
  EXPECT_FALSE(legacy.transport.has_value());
  ASSERT_TRUE(transported.transport.has_value());
  EXPECT_EQ(legacy.frames, transported.frames);
  EXPECT_EQ(legacy.mean_snr_db, transported.mean_snr_db);
  EXPECT_EQ(legacy.min_snr_db, transported.min_snr_db);
}

TEST(SessionTransport, BurstLossSessionClosesLedgerAndReportsCounters) {
  core::Scene scene = make_scene();
  sim::Simulator simulator;
  sim::FaultInjector faults{simulator};
  faults.inject("blockage-window", sim::from_seconds(0.5),
                sim::from_seconds(0.6), [] {});
  baseline::DirectTrackingStrategy strategy{scene};
  Session::Config config;
  config.duration = sim::from_seconds(2.0);
  config.faults = &faults;
  net::TransportConfig transport;
  transport.source.target_mbps = 2000.0;
  transport.adaptive_fec = true;
  config.transport = transport;
  config.burst_loss = sim::BurstChannel::Config{};
  Session session{simulator, scene, strategy, nullptr, nullptr, config};
  const QoeReport report = session.run();

  ASSERT_TRUE(report.burst.has_value());
  EXPECT_EQ(report.burst->steps, report.frames);
  // The fault window forced the chain bad at least once and the chain
  // spent time there.
  EXPECT_GE(report.burst->forced_bad, 1u);
  EXPECT_GT(report.burst->steps_bad, 0u);

  ASSERT_TRUE(report.transport.has_value());
  const net::TransportMetrics& metrics = *report.transport;
  EXPECT_TRUE(metrics.conserved());
  // The ~54% bad-state loss inside the forced window drives the adaptive
  // layer on: parity flowed and the controller engaged.
  EXPECT_GT(metrics.fec_frames_protected, 0u);
  EXPECT_GT(metrics.parity_enqueued, 0u);
  EXPECT_LE(metrics.packets_recovered_delivered, metrics.packets_recovered);
}

TEST(SessionTransport, DeterministicAcrossRuns) {
  Session::Config config;
  config.duration = sim::from_seconds(1.0);
  config.transport = net::TransportConfig{};

  const auto run_once = [&config] {
    core::Scene scene = make_scene();
    sim::Simulator simulator;
    baseline::DirectTrackingStrategy strategy{scene};
    Session session{simulator, scene, strategy, nullptr, nullptr, config};
    return session.run();
  };
  const QoeReport a = run_once();
  const QoeReport b = run_once();
  ASSERT_TRUE(a.transport.has_value());
  ASSERT_TRUE(b.transport.has_value());
  EXPECT_EQ(a.transport->packets_enqueued, b.transport->packets_enqueued);
  EXPECT_EQ(a.transport->packets_delivered, b.transport->packets_delivered);
  EXPECT_EQ(a.transport->retransmits, b.transport->retransmits);
  EXPECT_EQ(a.transport->p99_ms, b.transport->p99_ms);
  EXPECT_EQ(a.mean_snr_db, b.mean_snr_db);
}

}  // namespace
}  // namespace movr::vr
