#include <core/config_epoch.hpp>

#include <cmath>

#include <gtest/gtest.h>

#include <core/health.hpp>
#include <geom/angle.hpp>
#include <core/reflector.hpp>
#include <hw/leakage.hpp>
#include <sim/control_channel.hpp>
#include <sim/simulator.hpp>

namespace movr::core {
namespace {

sim::ControlChannel::Config lossless() {
  sim::ControlChannel::Config c;
  c.jitter = sim::Duration{0};
  c.loss_probability = 0.0;
  return c;
}

struct Rig {
  sim::Simulator s;
  sim::ControlChannel channel;
  MovrReflector reflector{{0.0, 0.0}, 0.0};
  ReflectorConfigAgent agent;
  ControlPlane plane;

  explicit Rig(sim::ControlChannel::Config channel_config = lossless(),
               ReflectorConfigAgent::Config agent_config = {},
               ControlPlane::Config plane_config = {})
      : channel{s, channel_config, std::mt19937_64{1}},
        agent{s, channel, reflector, agent_config, std::mt19937_64{2}},
        plane{s, channel, plane_config} {
    reflector.set_control_name("r0");
    agent.start();
    plane.manage(0, reflector, &agent);
  }
};

TEST(ConfigDigest, DeterministicAndSensitiveToEveryField) {
  const std::uint32_t base = config_digest(1.2, 100, 7, 2);
  EXPECT_EQ(base, config_digest(1.2, 100, 7, 2));
  EXPECT_NE(base, config_digest(1.2001, 100, 7, 2));
  EXPECT_NE(base, config_digest(1.2, 101, 7, 2));
  EXPECT_NE(base, config_digest(1.2, 100, 8, 2));
  EXPECT_NE(base, config_digest(1.2, 100, 7, 3));
  // The angle is wrapped before quantisation, matching PhasedArray::steer.
  EXPECT_EQ(base, config_digest(1.2 + 2.0 * geom::kTwoPi, 100, 7, 2));
}

TEST(ConfigEpoch, CommitAppliesAtomicallyAndAcks) {
  Rig rig;
  rig.plane.start();
  const std::uint64_t seq = rig.plane.commit(0, {1.1, 2.2, 90});
  EXPECT_GT(seq, 0u);
  rig.s.run_until(sim::TimePoint{100'000'000});

  EXPECT_NEAR(rig.reflector.front_end().rx_array().steering(), 1.1, 1e-12);
  EXPECT_NEAR(rig.reflector.front_end().tx_array().steering(), 2.2, 1e-12);
  EXPECT_EQ(rig.reflector.front_end().gain_code(), 90u);
  EXPECT_EQ(rig.agent.applied_seq(), seq);
  EXPECT_EQ(rig.agent.stats().epochs_applied, 1u);
  EXPECT_GE(rig.plane.stats().acks_received, 1u);
  // Digest agreement: nothing diverged, nothing to reconcile.
  EXPECT_EQ(rig.plane.stats().divergences_detected, 0u);
  EXPECT_EQ(rig.plane.divergence_age(0, rig.s.now()), sim::Duration{0});
}

TEST(ConfigEpoch, CommitWithoutFieldsDoesNotApply) {
  Rig rig;
  // A commit whose field messages never arrived (reordered behind it or
  // lost) must not apply a half-staged epoch.
  rig.channel.send("r0", {"cfg_gain", 200.0, 0, 9});
  rig.channel.send("r0", {"cfg_commit", 0.0, 0, 9});
  rig.s.run_until(sim::TimePoint{100'000'000});
  EXPECT_EQ(rig.agent.applied_seq(), 0u);
  EXPECT_EQ(rig.reflector.front_end().gain_code(), 0u);
  EXPECT_EQ(rig.agent.stats().incomplete_commits, 1u);
  EXPECT_EQ(rig.agent.stats().epochs_applied, 0u);
}

TEST(ConfigEpoch, StaleCommitIsIgnoredButReAcked) {
  Rig rig;
  rig.plane.commit(0, {1.0, 1.0, 50});
  rig.s.run_until(sim::TimePoint{50'000'000});
  const std::uint64_t applied = rig.agent.applied_seq();
  ASSERT_GT(applied, 0u);

  // An old epoch replayed out of order must not roll registers back.
  rig.channel.send("r0", {"cfg_rx", 0.5, 0, applied});
  rig.channel.send("r0", {"cfg_tx", 0.5, 0, applied});
  rig.channel.send("r0", {"cfg_gain", 10.0, 0, applied});
  rig.channel.send("r0", {"cfg_commit", 0.0, 0, applied});
  rig.s.run_until(rig.s.now() + sim::Duration{100'000'000});
  EXPECT_EQ(rig.agent.stats().stale_commits, 1u);
  EXPECT_EQ(rig.reflector.front_end().gain_code(), 50u);
}

TEST(SafeMode, ControlSilenceRampsGainToProvablyStableFloor) {
  ReflectorConfigAgent::Config agent_config;
  agent_config.silence_timeout = sim::Duration{400'000'000};
  agent_config.watchdog_tick = sim::Duration{100'000'000};
  Rig rig{lossless(), agent_config};

  // The AP sets a hot configuration, then goes silent (no digest loop).
  rig.plane.commit(0, {1.3, 1.8, rig.reflector.front_end().max_gain_code()});
  rig.s.run_until(sim::TimePoint{50'000'000});
  ASSERT_GT(rig.reflector.front_end().gain_code(), rig.agent.safe_gain_code());

  // Within one silence timeout plus one watchdog period the gain must sit
  // at (or below) the floor.
  rig.s.run_until(sim::TimePoint{50'000'000} + agent_config.silence_timeout +
                  2 * agent_config.watchdog_tick);
  EXPECT_TRUE(rig.agent.in_safe_mode());
  EXPECT_LE(rig.reflector.front_end().gain_code(), rig.agent.safe_gain_code());

  // The floor is provably stable: below worst-case isolation over the
  // whole steerable sector, so ANY beam combination keeps the loop stable.
  const hw::LeakageModel leakage{rig.reflector.front_end().config().leakage};
  EXPECT_LE(rig.reflector.front_end().amplifier_gain().value(),
            leakage.worst_case_isolation().value());
  EXPECT_TRUE(rig.reflector.front_end().process(rf::DbmPower{-60.0}).stable);
}

TEST(SafeMode, ExitsOnlyWhenApReassertsRegisters) {
  ReflectorConfigAgent::Config agent_config;
  agent_config.silence_timeout = sim::Duration{200'000'000};
  agent_config.watchdog_tick = sim::Duration{50'000'000};
  Rig rig{lossless(), agent_config};
  rig.plane.commit(0, {1.3, 1.8, 200});
  rig.s.run_until(sim::TimePoint{600'000'000});
  ASSERT_TRUE(rig.agent.in_safe_mode());

  // A fresh epoch commit re-asserts the registers and ends safe mode.
  rig.plane.commit(0, {1.3, 1.8, 200});
  rig.s.run_until(rig.s.now() + sim::Duration{50'000'000});
  EXPECT_FALSE(rig.agent.in_safe_mode());
  EXPECT_EQ(rig.reflector.front_end().gain_code(), 200u);
}

TEST(SafeMode, DisabledWatchdogNeverTrips) {
  ReflectorConfigAgent::Config agent_config;
  agent_config.silence_timeout = sim::Duration{100'000'000};
  agent_config.watchdog_enabled = false;  // the deliberately broken build
  Rig rig{lossless(), agent_config};
  rig.plane.commit(0, {1.3, 1.8, 200});
  rig.s.run_until(sim::TimePoint{2'000'000'000});
  EXPECT_FALSE(rig.agent.in_safe_mode());
  EXPECT_EQ(rig.reflector.front_end().gain_code(), 200u);
  EXPECT_EQ(rig.agent.stats().safe_mode_entries, 0u);
}

TEST(SafeMode, OscillationCurrentGuardTripsWithoutSilence) {
  ReflectorConfigAgent::Config agent_config;
  agent_config.silence_timeout = sim::Duration{3'600'000'000'000};  // never
  agent_config.watchdog_tick = sim::Duration{50'000'000};
  Rig rig{lossless(), agent_config};

  // Steer both beams into the worst-coupling direction and max out the
  // gain: the loop goes unstable and the amplifier rails. The only
  // observable is the supply current — the guard must catch it.
  const auto& leakage_config = rig.reflector.front_end().config().leakage;
  auto& fe = rig.reflector.front_end();
  fe.steer_tx(leakage_config.tx_coupling_angle);
  fe.steer_rx(leakage_config.rx_coupling_angle);
  fe.set_gain_code(fe.max_gain_code());
  ASSERT_FALSE(fe.process(rf::DbmPower{-60.0}).stable);

  rig.s.run_until(rig.s.now() + sim::Duration{500'000'000});
  EXPECT_GE(rig.agent.stats().oscillation_trips, 1u);
  EXPECT_LE(fe.gain_code(), rig.agent.safe_gain_code());
  EXPECT_TRUE(fe.process(rf::DbmPower{-60.0}).stable);
}

TEST(ControlPlane, DigestCatchesSilentRegisterDivergence) {
  Rig rig;
  HealthMonitor health;
  health.track(1);
  rig.plane.bind_health(&health);
  rig.plane.start();
  rig.plane.commit(0, {1.1, 2.2, 90});
  rig.s.run_until(sim::TimePoint{100'000'000});
  ASSERT_EQ(rig.reflector.front_end().gain_code(), 90u);

  // Undetected corruption in a direct register write: the gain register
  // silently holds a value the AP never committed.
  rig.reflector.front_end().set_gain_code(240);
  rig.s.run_until(rig.s.now() + sim::Duration{500'000'000});

  EXPECT_GE(rig.plane.stats().divergences_detected, 1u);
  EXPECT_GE(rig.plane.stats().reconciliations, 1u);
  EXPECT_GE(health.stats().divergences, 1);
  EXPECT_TRUE(health.needs_recalibration(0));
  // The reconciliation replay restored the committed epoch...
  EXPECT_EQ(rig.reflector.front_end().gain_code(), 90u);
  // ...and the divergence closed (age back to zero).
  EXPECT_EQ(rig.plane.divergence_age(0, rig.s.now()), sim::Duration{0});
}

TEST(ControlPlane, PartitionIsDetectedQuarantinedAndHealed) {
  ControlPlane::Config plane_config;
  plane_config.digest_interval = sim::Duration{100'000'000};
  plane_config.reply_timeout = sim::Duration{40'000'000};
  plane_config.missed_replies_to_partition = 3;
  Rig rig{lossless(), {}, plane_config};
  HealthMonitor health;
  health.track(1);
  rig.plane.bind_health(&health);
  rig.plane.start();
  rig.plane.commit(0, {1.1, 2.2, 90});
  rig.s.run_until(sim::TimePoint{200'000'000});
  ASSERT_FALSE(rig.plane.partitioned(0));

  rig.channel.apply_partition(+1);
  rig.s.run_until(rig.s.now() + sim::Duration{600'000'000});
  EXPECT_TRUE(rig.plane.partitioned(0));
  EXPECT_TRUE(health.quarantined(0));
  EXPECT_EQ(rig.plane.stats().partitions_entered, 1u);
  // A partition alone opens no divergence episode: no digest reply can
  // arrive to mismatch until the partition heals.
  EXPECT_EQ(rig.plane.divergence_age(0, rig.s.now()), sim::Duration{0});

  rig.channel.apply_partition(-1);
  rig.s.run_until(rig.s.now() + sim::Duration{600'000'000});
  EXPECT_FALSE(rig.plane.partitioned(0));
  EXPECT_EQ(rig.plane.stats().partitions_healed, 1u);
}

TEST(ControlPlane, RebootIsDetectedAndEpochReplayed) {
  Rig rig;
  HealthMonitor health;
  health.track(1);
  rig.plane.bind_health(&health);
  rig.plane.start();
  rig.plane.commit(0, {1.1, 2.2, 90});
  rig.s.run_until(sim::TimePoint{100'000'000});
  ASSERT_EQ(rig.reflector.front_end().gain_code(), 90u);

  rig.reflector.power_cycle();  // registers wiped, boot epoch bumps
  ASSERT_EQ(rig.reflector.front_end().gain_code(), 0u);
  rig.s.run_until(rig.s.now() + sim::Duration{800'000'000});

  EXPECT_GE(rig.plane.stats().reboots_detected, 1u);
  EXPECT_GE(health.stats().reboots_detected, 1);
  // The replay re-applied the committed epoch on the newborn reflector.
  EXPECT_EQ(rig.reflector.front_end().gain_code(), 90u);
  EXPECT_NEAR(rig.reflector.front_end().rx_array().steering(), 1.1, 1e-12);
  EXPECT_EQ(rig.plane.divergence_age(0, rig.s.now()), sim::Duration{0});
}

TEST(ControlPlane, IncidentCountersAggregateAgentSide) {
  ReflectorConfigAgent::Config agent_config;
  agent_config.silence_timeout = sim::Duration{200'000'000};
  agent_config.watchdog_tick = sim::Duration{50'000'000};
  Rig rig{lossless(), agent_config};
  rig.plane.commit(0, {1.3, 1.8, 200});
  rig.s.run_until(sim::TimePoint{600'000'000});  // silence: safe mode trips
  const ControlPlaneIncidents incidents = rig.plane.incidents();
  EXPECT_GE(incidents.safe_mode_entries, 1u);
}

}  // namespace
}  // namespace movr::core
