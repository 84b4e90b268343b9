// Lease-protocol edge cases (ISSUE: arena arbitration):
//   * revocation landing while the victim's handover is still in flight
//     (kHandoverPending) must cancel the pending commit, not program a
//     reflector the victim no longer owns;
//   * simultaneous equal-priority waiters must resolve deterministically
//     (lower user id wins, independent of registration order);
//   * admission evicting a user whose LinkManager is already in its safe
//     fallback mode (kDegraded) must leave every piece of shared state
//     consistent — no lease leaks, revoke on a non-holder is a no-op, and
//     the user readmits cleanly after backoff;
//   * a waiter whose wait_ttl expires the very tick its reservation is
//     granted must not leave a dangling reservation;
//   * device quarantine bounces acquires without registering wait entries,
//     and failover's strip + fast-track primitives behave (one-shot
//     backdated priority for the displaced holder).
#include <arena/admission.hpp>
#include <arena/lease.hpp>

#include <gtest/gtest.h>

#include <array>

#include <core/gain_control.hpp>
#include <core/link_manager.hpp>
#include <geom/angle.hpp>

namespace movr::arena {
namespace {

using core::LinkManager;
using movr::geom::deg_to_rad;

sim::TimePoint ms(long v) { return sim::TimePoint{std::chrono::milliseconds{v}}; }

/// One user's world: own scene clone (as the coordinator builds), own
/// manager, lease hooks wired to a shared arbiter — the unit-scale version
/// of what arena::Coordinator assembles.
struct UserRig {
  core::Scene scene;
  LinkManager manager;

  UserRig(sim::Simulator& simulator, const core::Scene& prototype,
          ReflectorArbiter& arbiter, std::size_t user, std::uint64_t seed,
          LinkManager::Config config = {})
      : scene{prototype.clone()},
        manager{simulator, scene, std::mt19937_64{seed},
                wire(config, arbiter, user, simulator)} {}

  static LinkManager::Config wire(LinkManager::Config config,
                                  ReflectorArbiter& arbiter, std::size_t user,
                                  sim::Simulator& simulator) {
    config.reflector_acquire = [&arbiter, user, &simulator](std::size_t r) {
      return arbiter.acquire(user, r, simulator.now());
    };
    config.reflector_release = [&arbiter, user, &simulator](std::size_t r) {
      arbiter.release(user, r, simulator.now());
    };
    return config;
  }

  void block_direct() {
    scene.room().add_obstacle(channel::make_hand(
        scene.headset().node().position(),
        scene.ap().node().position() - scene.headset().node().position()));
  }
};

core::Scene make_prototype() {
  core::Scene scene{channel::Room{5.0, 5.0},
                    core::ApRadio{{0.4, 0.4}, deg_to_rad(45.0)},
                    core::HeadsetRadio{{3.0, 2.0}, 0.0}};
  auto& reflector = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0));
  std::mt19937_64 rng{99};
  scene.calibrate_reflector(reflector, rng);
  scene.ap().node().steer_toward(scene.headset().node().position());
  return scene;
}

// --- edge 1: lease expiry while the handover is still in flight ---------

TEST(ArenaLease, RevocationDuringPendingHandoverCancelsCommit) {
  ReflectorArbiter::Config cfg;
  cfg.lease_duration = std::chrono::milliseconds{100};
  cfg.wait_ttl = std::chrono::milliseconds{1000};
  cfg.aging_per_second = 4.0;  // bonus 0.25 out-aged after 62.5 ms waiting
  ReflectorArbiter arbiter{1, 2, cfg};

  sim::Simulator simulator;
  const auto prototype = make_prototype();
  LinkManager::Config slow;
  slow.bt_wait = std::chrono::milliseconds{300};  // long in-flight window
  slow.handover_timeout = std::chrono::milliseconds{600};
  UserRig a{simulator, prototype, arbiter, 0, 11, slow};

  a.block_direct();
  for (int i = 0; i < 5 &&
       a.manager.mode() != LinkManager::Mode::kHandoverPending; ++i) {
    a.manager.on_frame();
    simulator.run_until(simulator.now() + std::chrono::milliseconds{2});
  }
  ASSERT_EQ(a.manager.mode(), LinkManager::Mode::kHandoverPending);
  ASSERT_EQ(arbiter.holder(0), std::optional<std::size_t>{0});

  // User 1 wants the same reflector and starts aging against the holder.
  EXPECT_FALSE(arbiter.acquire(1, 0, simulator.now()));

  // Past the lease term AND past the waiter's aging threshold — but well
  // before the 300 ms commit lands: the renew must revoke mid-flight.
  simulator.run_until(ms(150));
  EXPECT_FALSE(arbiter.renew(0, 0, simulator.now()));
  a.manager.revoke_reflector(0);
  EXPECT_EQ(a.manager.mode(), LinkManager::Mode::kDirect);
  EXPECT_EQ(a.manager.stats().lease_revocations, 1);
  EXPECT_EQ(arbiter.reserved_for(0), std::optional<std::size_t>{1});

  // The cancelled commit must never fire: driving the simulator past the
  // original bt_wait leaves the victim in kDirect (its next frame would
  // re-run target selection from scratch).
  simulator.run_until(ms(500));
  EXPECT_EQ(a.manager.mode(), LinkManager::Mode::kDirect);

  // ...and the aged-out waiter claims the reservation deterministically.
  EXPECT_TRUE(arbiter.acquire(1, 0, simulator.now()));
  EXPECT_EQ(arbiter.holder(0), std::optional<std::size_t>{1});
}

// --- edge 2: simultaneous equal-priority requests -----------------------

TEST(ArenaLease, EqualPriorityTieBreaksToLowerUserId) {
  for (const bool high_id_first : {true, false}) {
    ReflectorArbiter arbiter{1, 3, {}};
    ASSERT_TRUE(arbiter.acquire(0, 0, ms(0)));

    // Two waiters register at the SAME instant: identical priority from
    // then on. Registration order must not matter.
    if (high_id_first) {
      EXPECT_FALSE(arbiter.acquire(2, 0, ms(10)));
      EXPECT_FALSE(arbiter.acquire(1, 0, ms(10)));
    } else {
      EXPECT_FALSE(arbiter.acquire(1, 0, ms(10)));
      EXPECT_FALSE(arbiter.acquire(2, 0, ms(10)));
    }

    arbiter.release(0, 0, ms(100));
    EXPECT_EQ(arbiter.reserved_for(0), std::optional<std::size_t>{1})
        << "registration order " << (high_id_first ? "2,1" : "1,2");

    // The reservation actually excludes the losing waiter...
    EXPECT_FALSE(arbiter.acquire(2, 0, ms(110)));
    // ...and admits the winner.
    EXPECT_TRUE(arbiter.acquire(1, 0, ms(110)));
    EXPECT_EQ(arbiter.holder(0), std::optional<std::size_t>{1});
  }
}

// --- edge 3: eviction while the victim sits in safe mode ----------------

TEST(ArenaLease, EvictionWhileVictimDegradedStaysConsistent) {
  ReflectorArbiter arbiter{1, 2, {}};
  sim::Simulator simulator;
  const auto prototype = make_prototype();

  // The victim's manager: direct link blocked AND the only reflector
  // quarantined -> candidate list empty -> kDegraded, the manager's safe
  // fallback mode (low-MCS direct, re-probing).
  UserRig b{simulator, prototype, arbiter, 1, 22};
  b.block_direct();
  b.manager.health().track(1);
  b.manager.health().quarantine(0, simulator.now(), "test");
  b.manager.on_frame();
  ASSERT_EQ(b.manager.mode(), LinkManager::Mode::kDegraded);
  ASSERT_FALSE(b.manager.leased_reflector().has_value());

  // Admission: both users on one AP, utilization pinned above capacity by
  // the victim's collapsed PHY rate. Dwell runs out -> degrade, then the
  // still-overloaded AP evicts the (already safe-mode) victim.
  AdmissionController admission{2, 1, {}};
  const AdmissionController::Sample healthy{0, 300.0, 2000.0, 0.0};
  const AdmissionController::Sample starving{0, 300.0, 50.0, 0.9};
  const std::array<AdmissionController::Sample, 2> window{healthy, starving};
  sim::TimePoint now = ms(0);
  auto step_windows = [&](int n) {
    for (int i = 0; i < n; ++i) {
      now = now + std::chrono::milliseconds{250};
      admission.on_window(window, now);
    }
  };
  step_windows(3);
  ASSERT_EQ(admission.state(1), AdmissionController::State::kDegraded);
  step_windows(3);
  ASSERT_EQ(admission.state(1), AdmissionController::State::kEvicted);
  EXPECT_FALSE(admission.transmitting(1));
  EXPECT_EQ(admission.mcs_cap(1), -1);
  EXPECT_EQ(admission.weight(1), 0.0);

  // The coordinator's eviction sweep revokes any lease the victim holds —
  // here it holds none (safe mode), so the revoke must be a clean no-op.
  arbiter.release(1, 0, now);
  b.manager.revoke_reflector(0);
  EXPECT_EQ(b.manager.mode(), LinkManager::Mode::kDegraded);
  EXPECT_EQ(b.manager.stats().lease_revocations, 0);
  EXPECT_FALSE(arbiter.holder(0).has_value());

  // Load drains (victim muted => below headroom), the backoff expires, and
  // the victim readmits -- through degraded first, never straight to full
  // weight.
  const std::array<AdmissionController::Sample, 2> calm{
      healthy, AdmissionController::Sample{0, 0.0, 2000.0, 0.0}};
  auto step_calm = [&](int n) {
    for (int i = 0; i < n; ++i) {
      now = now + std::chrono::milliseconds{250};
      admission.on_window(calm, now);
    }
  };
  step_calm(12);  // > dwell and > 2 s readmit backoff
  EXPECT_TRUE(admission.transmitting(1));
  EXPECT_EQ(admission.counters(1).evictions, 1);
  EXPECT_GE(admission.counters(1).readmissions, 1);

  // Back in the room, the ex-victim can lease the reflector again once the
  // quarantine backoff expires (the degraded re-probe doubles as the
  // handover attempt, and the arbiter has a free table).
  simulator.run_until(simulator.now() + std::chrono::milliseconds{250});
  b.manager.on_frame();
  EXPECT_TRUE(b.manager.leased_reflector().has_value());
}

// --- edge 4: wait_ttl expiring the tick the reservation lands -----------

// A waiter whose wait_ttl runs out in the very tick its reservation is
// granted (it stopped retrying — its blockage cleared) must not leave a
// dangling reservation that blocks everyone else for the full
// reserve_ttl.
TEST(ArenaLease, StaleReservationLapsesWhenReservedWaiterGaveUp) {
  ReflectorArbiter::Config cfg;
  cfg.lease_duration = std::chrono::milliseconds{100};
  cfg.wait_ttl = std::chrono::milliseconds{250};
  cfg.aging_per_second = 4.0;
  ReflectorArbiter arbiter{1, 3, cfg};

  ASSERT_TRUE(arbiter.acquire(0, 0, ms(0)));
  // User 1 asks once at 10 ms and never again (its blockage clears).
  EXPECT_FALSE(arbiter.acquire(1, 0, ms(10)));

  // At 260 ms user 1 is still inside wait_ttl by the strict-> comparison
  // (250 ms exactly), has out-aged the holder bonus (4.0/s * 250 ms = 1.0
  // > 0.25), and the lease term (100 ms) has long expired: the renew
  // revokes and reserves for user 1 — in the same tick its TTL lapses.
  EXPECT_FALSE(arbiter.renew(0, 0, ms(260)));
  ASSERT_EQ(arbiter.reserved_for(0), std::optional<std::size_t>{1});

  // One tick later the reserved waiter is stale. A third user's acquire
  // must be granted through the lapsed reservation, not bounced until
  // reserve_expiry.
  EXPECT_TRUE(arbiter.acquire(2, 0, ms(261)));
  EXPECT_EQ(arbiter.holder(0), std::optional<std::size_t>{2});
  EXPECT_FALSE(arbiter.reserved_for(0).has_value());
  EXPECT_EQ(arbiter.stats().stale_reservations, 1u);
}

// --- edge 5: device quarantine bounces acquires without aging -----------

TEST(ArenaLease, QuarantinedDeviceBouncesAcquiresWithoutWaitEntry) {
  ReflectorArbiter arbiter{1, 2, {}};
  ASSERT_TRUE(arbiter.acquire(0, 0, ms(0)));

  arbiter.set_device_quarantined(0, true);
  EXPECT_TRUE(arbiter.device_quarantined(0));

  // A non-holder bounces off the benched device...
  EXPECT_FALSE(arbiter.acquire(1, 0, ms(10)));
  EXPECT_EQ(arbiter.stats().quarantine_denials, 1u);
  EXPECT_EQ(arbiter.user_stats(1).quarantine_denials, 1u);
  // ...while the surviving holder may still refresh (enforcement is the
  // coordinator's failover strip, so a disabled failover is observable).
  EXPECT_TRUE(arbiter.renew(0, 0, ms(20)));

  // Failover strips the holder; the device stays un-leasable until the
  // re-probe succeeds and clears the flag.
  EXPECT_EQ(arbiter.strip_holder(0), std::optional<std::size_t>{0});
  EXPECT_FALSE(arbiter.holder(0).has_value());
  EXPECT_EQ(arbiter.user_stats(0).revocations, 1u);
  EXPECT_FALSE(arbiter.acquire(1, 0, ms(30)));

  arbiter.set_device_quarantined(0, false);
  EXPECT_TRUE(arbiter.acquire(1, 0, ms(40)));
  EXPECT_EQ(arbiter.holder(0), std::optional<std::size_t>{1});

  // The bounce at 10 ms must not have registered a wait entry: no aged
  // priority, so a release with no other live waiter reserves nothing.
  arbiter.release(1, 0, ms(50));
  EXPECT_FALSE(arbiter.reserved_for(0).has_value());
}

// --- edge 6: a displaced holder re-queues with its head start -----------

TEST(ArenaLease, FastTrackBackdatesTheDisplacedHoldersWait) {
  ReflectorArbiter::Config cfg;
  cfg.lease_duration = std::chrono::milliseconds{100};
  cfg.wait_ttl = std::chrono::milliseconds{1000};
  cfg.aging_per_second = 4.0;
  ReflectorArbiter arbiter{2, 3, cfg};

  // User 0 holds both reflectors; user 2 has been waiting on both since
  // 10 ms; user 1 (a failover-displaced holder, 150 ms credit) joins both
  // queues at 20 ms.
  ASSERT_TRUE(arbiter.acquire(0, 0, ms(0)));
  ASSERT_TRUE(arbiter.acquire(0, 1, ms(0)));
  EXPECT_FALSE(arbiter.acquire(2, 0, ms(10)));
  EXPECT_FALSE(arbiter.acquire(2, 1, ms(10)));
  arbiter.fast_track(1, std::chrono::milliseconds{150});
  EXPECT_FALSE(arbiter.acquire(1, 0, ms(20)));  // consumes the credit here
  EXPECT_FALSE(arbiter.acquire(1, 1, ms(30)));  // credit already spent
  EXPECT_EQ(arbiter.stats().fast_tracks, 1u);

  // Reflector 0 at 120 ms: priorities are 4.0/s * 250 ms = 1.0 (user 1,
  // backdated to -130 ms) vs 4.0/s * 110 ms = 0.44 (user 2) — the
  // displaced holder wins the revocation despite registering later.
  EXPECT_FALSE(arbiter.renew(0, 0, ms(120)));
  EXPECT_EQ(arbiter.reserved_for(0), std::optional<std::size_t>{1});

  // Reflector 1: the credit was one-shot, so user 1 ages from its real
  // registration (30 ms) and the longer-waiting user 2 wins this queue.
  EXPECT_FALSE(arbiter.renew(0, 1, ms(200)));
  EXPECT_EQ(arbiter.reserved_for(1), std::optional<std::size_t>{2});
}

}  // namespace
}  // namespace movr::arena
