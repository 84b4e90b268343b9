#include <arena/coordinator.hpp>

#include <algorithm>
#include <cstring>
#include <utility>

#include <sim/rng.hpp>

namespace movr::arena {

namespace {

/// Admission runs every 12th control tick: a 250 ms window, truncated to
/// whole 20 ms ticks.
constexpr int kAdmissionWindowTicks = 12;
/// Lease-liveness bound: no lease may survive on a quarantined device
/// longer than this. Written into the coordinator log's params record
/// (revoke_grace_us) so log_verify can re-check it offline.
constexpr sim::Duration kRevokeGrace{std::chrono::milliseconds{60}};
/// Aging head start credited to a holder displaced by failover, so losing
/// a reflector to a fault does not also mean the back of the wait queue.
constexpr sim::Duration kFastTrackHeadStart{std::chrono::milliseconds{150}};
/// A fault-displaced or browned-out user stays "fault-degraded" for
/// admission this long past its fault window: spared as eviction victim,
/// and readmission probation composes with the window.
constexpr sim::Duration kFaultDegradedGrace{std::chrono::milliseconds{500}};
/// Orphan watchdog: an arbiter-side holder whose manager holds no matching
/// lease for longer than this is reaped.
constexpr sim::Duration kOrphanGrace{std::chrono::milliseconds{60}};

void mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
}

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

std::size_t ap_count_of(const Coordinator::Config& config) {
  return config.ap_positions.empty() ? 1 : config.ap_positions.size();
}

}  // namespace

std::uint64_t qoe_fingerprint(const vr::QoeReport& report) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  mix(h, report.frames);
  mix(h, report.glitched_frames);
  mix(h, report.stall_events);
  mix(h, static_cast<std::uint64_t>(report.longest_stall.count()));
  mix(h, bits(report.mean_snr_db));
  mix(h, bits(report.min_snr_db));
  mix(h, bits(report.mean_rate_mbps));
  if (report.transport.has_value()) {
    const net::TransportMetrics& t = *report.transport;
    mix(h, t.frames_emitted);
    mix(h, t.frames_on_time);
    mix(h, t.frames_late);
    mix(h, t.frames_dropped_queue);
    mix(h, t.frames_dropped_arq);
    mix(h, t.frames_missed);
    mix(h, t.frames_unresolved);
    mix(h, t.deadline_misses);
    mix(h, t.packets_enqueued);
    mix(h, t.packets_delivered);
    mix(h, t.bytes_delivered);
    mix(h, t.packets_dropped);
    mix(h, t.packets_in_flight);
    mix(h, t.retransmits);
    mix(h, t.duplicates);
    mix(h, t.speculative_enqueued);
    mix(h, t.speculative_dups);
    mix(h, t.speculative_drops);
    mix(h, t.speculative_saves);
    mix(h, t.parity_enqueued);
    mix(h, t.parity_delivered);
    mix(h, t.packets_recovered);
    mix(h, t.packets_recovered_delivered);
    mix(h, t.fec_frames_protected);
    mix(h, t.fec_enables);
    mix(h, t.histogram.total());
    mix(h, bits(t.p50_ms));
    mix(h, bits(t.p95_ms));
    mix(h, bits(t.p99_ms));
    mix(h, bits(t.airtime_share_min));
    mix(h, bits(t.interference_db_max));
    mix(h, t.interfered_ticks);
  }
  if (report.burst.has_value()) {
    mix(h, report.burst->steps);
    mix(h, report.burst->steps_bad);
    mix(h, report.burst->bursts);
    mix(h, report.burst->forced_bad);
    mix(h, report.burst->longest_burst_steps);
  }
  if (report.predictive.has_value()) {
    mix(h, static_cast<std::uint64_t>(report.predictive->risk_windows));
    mix(h, static_cast<std::uint64_t>(report.predictive->proactive_handovers));
    mix(h, static_cast<std::uint64_t>(report.predictive->mispredictions));
  }
  return h;
}

Coordinator::UserWorld Coordinator::build_user_world(
    const core::Scene& prototype, const Config& config, std::size_t user) {
  UserWorld world{prototype.clone(), {}, {}, {}, 0, 0.0};
  const sim::RngRegistry rngs{config.seed};
  if (!config.ap_positions.empty()) {
    world.ap_index = user % config.ap_positions.size();
    world.scene.ap().node().set_position(config.ap_positions[world.ap_index]);
    if (!config.ap_orientations.empty()) {
      world.scene.ap().node().set_orientation(
          config.ap_orientations[world.ap_index %
                                 config.ap_orientations.size()]);
    }
  }
  // Calibrate every reflector against THIS user's AP: each AP keeps its own
  // register shadow (RX angle, gain code) and programs the reflector from
  // it when its handover commits — the lease guarantees no two shadows are
  // live on the hardware at once.
  auto cal_rng = rngs.stream("arena.cal", user);
  for (std::size_t i = 0; i < world.scene.reflector_count(); ++i) {
    world.scene.calibrate_reflector(world.scene.reflector(i), cal_rng);
  }
  world.manager_rng = rngs.stream("arena.mgr", user);
  world.link_config = config.link;
  world.session_config = config.session;
  world.session_config.rate_control_seed = rngs.stream("arena.rate", user)();
  if (world.session_config.transport.has_value()) {
    world.session_config.transport->seed = rngs.stream("arena.net", user)();
    world.session_config.transport->source.seed =
        rngs.stream("arena.src", user)();
  }
  if (world.session_config.burst_loss.has_value()) {
    world.session_config.burst_loss->seed = rngs.stream("arena.burst", user)();
  }
  const auto& session = world.session_config;
  world.offered_mbps =
      session.transport.has_value() && session.transport->source.target_mbps > 0.0
          ? session.transport->source.target_mbps
          : session.display.required_mbps();
  return world;
}

Coordinator::User::User(sim::Simulator& simulator, UserWorld world,
                        const MotionFactory& motion_factory,
                        const ScriptFactory& script_factory, std::size_t index)
    : scene{std::move(world.scene)},
      motion{motion_factory ? motion_factory(index, scene) : nullptr},
      script{script_factory
                 ? std::optional<vr::BlockageScript>{script_factory(index)}
                 : std::nullopt},
      strategy{simulator, scene, world.manager_rng, world.link_config},
      session{simulator,          scene,
              strategy,           motion.get(),
              script.has_value() ? &*script : nullptr,
              world.session_config},
      ap_index{world.ap_index},
      offered_mbps{world.offered_mbps} {}

Coordinator::Coordinator(sim::Simulator& simulator,
                         const core::Scene& prototype, Config config,
                         MotionFactory motion, ScriptFactory script)
    : simulator_{simulator},
      config_{std::move(config)},
      motion_factory_{std::move(motion)},
      script_factory_{std::move(script)},
      arbiter_{prototype.reflector_count(), config_.users, config_.arbiter},
      admission_{config_.users, ap_count_of(config_), config_.admission},
      share_(config_.users, 1.0),
      ap_brownout_db_(ap_count_of(config_), 0.0),
      active_reflector_faults_(prototype.reflector_count(), 0),
      fault_until_(config_.users, sim::TimePoint{}),
      orphan_since_(prototype.reflector_count(), sim::TimePoint{}),
      orphan_armed_(prototype.reflector_count(), 0) {
  users_.reserve(config_.users);
  for (std::size_t u = 0; u < config_.users; ++u) {
    UserWorld world = build_user_world(prototype, config_, u);
    if (config_.user_recorder) {
      log::Recorder* recorder = config_.user_recorder(u);
      world.session_config.recorder = recorder;
      world.link_config.recorder = recorder;
    }
    world.link_config.reflector_acquire = [this, u](std::size_t r) {
      return try_acquire(u, r);
    };
    world.link_config.reflector_release = [this, u](std::size_t r) {
      arbiter_.release(u, r, simulator_.now());
    };
    world.session_config.snr_penalty_db = [this, u] {
      return penalty_for(u);
    };
    world.session_config.mcs_index_limit = [this, u] {
      return admission_.mcs_cap(u);
    };
    world.session_config.airtime_share = [this, u] { return share_[u]; };
    users_.push_back(std::make_unique<User>(
        simulator_, std::move(world), motion_factory_, script_factory_, u));
  }
  recompute_shares();
  schedule_faults();
}

Coordinator::~Coordinator() = default;

bool Coordinator::try_acquire(std::size_t user, std::size_t reflector) {
  if (!admission_.transmitting(user)) {
    return false;  // an evicted user has no business holding a reflector
  }
  return arbiter_.acquire(user, reflector, simulator_.now());
}

double Coordinator::penalty_for(std::size_t user) {
  interferer_scratch_.clear();
  for (std::size_t v = 0; v < users_.size(); ++v) {
    if (v == user || !admission_.transmitting(v)) {
      continue;
    }
    const core::LinkManager& manager = users_[v]->strategy.manager();
    Interferer aggressor;
    aggressor.scene = &users_[v]->scene;
    aggressor.via_reflector =
        manager.mode() == core::LinkManager::Mode::kViaReflector;
    aggressor.reflector = manager.active_reflector();
    interferer_scratch_.push_back(aggressor);
  }
  // An AP brownout penalizes every attached user's SNR for the window;
  // zero outside fault windows, so the fault-free arena returns the exact
  // same doubles as before the chaos layer existed.
  const double brownout = ap_brownout_db_[users_[user]->ap_index];
  if (interferer_scratch_.empty()) {
    return brownout;
  }
  const double interference = sinr_penalty_db(
      users_[user]->scene, interferer_scratch_, config_.interference);
  return brownout > 0.0 ? brownout + interference : interference;
}

void Coordinator::control_tick() {
  const sim::TimePoint now = simulator_.now();
  // Benched devices whose backoff expired get their re-probe first, so a
  // healed reflector is leasable again within the same tick.
  device_probe_tick(now);
  // Lease keep-alives: a renewal that fails means the arbiter aged the
  // lease away — enforce it on the manager immediately.
  for (std::size_t u = 0; u < users_.size(); ++u) {
    core::LinkManager& manager = users_[u]->strategy.manager();
    const auto leased = manager.leased_reflector();
    if (leased.has_value() && !arbiter_.renew(u, *leased, now)) {
      manager.revoke_reflector(*leased);
      if (config_.recorder != nullptr) {
        config_.recorder->record(
            log::EventKind::kLeaseRevoke,
            {{"user", static_cast<std::int64_t>(u)},
             {"reflector", static_cast<std::int64_t>(*leased)}});
      }
    }
  }
  orphan_watchdog(now);
  if (++ticks_since_admission_ >= kAdmissionWindowTicks) {
    ticks_since_admission_ = 0;
    admission_tick(now);
  }
  recompute_shares();
  // Lease/quarantine snapshots land after enforcement, so a verifier
  // replaying them sees the state the failover machinery actually left.
  snapshot_leases();
  if (config_.recorder != nullptr) {
    config_.recorder->record(
        log::EventKind::kCoordTick,
        {{"users", static_cast<std::int64_t>(users_.size())}});
  }
  // The per-user packet-ledger audit (Transport::ledger_closes).
  for (auto& user : users_) {
    if (const net::Transport* transport = user->session.transport()) {
      ++user->ledger_checks;
      if (!transport->ledger_closes()) {
        ++user->ledger_violations;
      }
    }
  }
  if (now + kControlInterval <= end_) {
    simulator_.at(now + kControlInterval, [this] { control_tick(); });
  }
}

void Coordinator::schedule_faults() {
  if (config_.faults.empty()) {
    return;  // fault-free arena: the chaos machinery stays fully inert
  }
  injector_ = std::make_unique<sim::FaultInjector>(simulator_);
  device_health_.track(active_reflector_faults_.size());
  device_health_.set_recorder(config_.recorder);
  for (const ArenaFault& fault : config_.faults) {
    switch (fault.kind) {
      case ArenaFault::Kind::kReflectorReboot: {
        injector_->inject_pulse(
            "arena.reboot.r" + std::to_string(fault.resource), fault.start,
            [this, fault] {
              for (auto& user : users_) {
                user->scene.reflector(fault.resource).power_cycle();
              }
              record_arena_fault(log::EventKind::kArenaFaultOpen, fault);
              on_reflector_fault(fault.resource, simulator_.now(),
                                 /*windowed=*/false);
              record_arena_fault(log::EventKind::kArenaFaultClose, fault);
            });
        break;
      }
      case ArenaFault::Kind::kReflectorGainSag: {
        auto opened = std::make_shared<bool>(false);
        injector_->inject_sweep(
            "arena.sag.r" + std::to_string(fault.resource), fault.start,
            fault.duration, kControlInterval,
            [this, fault, opened](double progress) {
              if (!*opened) {
                *opened = true;
                record_arena_fault(log::EventKind::kArenaFaultOpen, fault);
                on_reflector_fault(fault.resource,
                                   fault.start + fault.duration,
                                   /*windowed=*/true);
              }
              const rf::Decibels sag{fault.magnitude_db * progress};
              for (auto& user : users_) {
                user->scene.reflector(fault.resource)
                    .front_end()
                    .inject_gain_sag(sag);
              }
            },
            [this, fault] {
              for (auto& user : users_) {
                user->scene.reflector(fault.resource)
                    .front_end()
                    .inject_gain_sag(rf::Decibels{0.0});
              }
              on_reflector_fault_close(fault.resource);
              record_arena_fault(log::EventKind::kArenaFaultClose, fault);
            });
        break;
      }
      case ArenaFault::Kind::kApBrownout: {
        injector_->inject(
            "arena.brownout.ap" + std::to_string(fault.resource), fault.start,
            fault.duration,
            [this, fault] {
              ++chaos_.faults_applied;
              ap_brownout_db_.at(fault.resource) += fault.magnitude_db;
              const sim::TimePoint until =
                  simulator_.now() + fault.duration + kFaultDegradedGrace;
              for (std::size_t u = 0; u < users_.size(); ++u) {
                if (users_[u]->ap_index == fault.resource) {
                  mark_fault_degraded(u, until);
                }
              }
              record_arena_fault(log::EventKind::kArenaFaultOpen, fault);
            },
            [this, fault] {
              ap_brownout_db_.at(fault.resource) -= fault.magnitude_db;
              record_arena_fault(log::EventKind::kArenaFaultClose, fault);
            });
        break;
      }
    }
  }
}

void Coordinator::on_reflector_fault(std::size_t r, sim::TimePoint window_end,
                                     bool windowed) {
  const sim::TimePoint now = simulator_.now();
  ++chaos_.faults_applied;
  if (windowed) {
    ++active_reflector_faults_.at(r);
  }
  if (!device_health_.quarantined(r)) {
    device_health_.quarantine(r, now, "arena fault");
    ++chaos_.device_quarantines;
  }
  if (windowed) {
    // Pin the first re-probe past the window end: probing into a known
    // fault window can only fail and double the backoff.
    device_health_.extend_quarantine(r, window_end);
  }
  if (!config_.lease_failover) {
    // Tripwire mode: the holder rides the quarantined device (the offline
    // verifier must catch it). Still mark it fault-degraded so admission
    // does not double-punish the victim.
    if (const auto holder = arbiter_.holder(r)) {
      mark_fault_degraded(*holder, window_end + kFaultDegradedGrace);
    }
    return;
  }
  // Lease failover: bench the device arbiter-side, strip + revoke the
  // holder, and credit it a head start for its next wait queue.
  arbiter_.set_device_quarantined(r, true);
  const auto ex = arbiter_.strip_holder(r);
  if (ex.has_value()) {
    ++chaos_.failover_revocations;
    users_[*ex]->strategy.manager().revoke_reflector(r);
    arbiter_.fast_track(*ex, kFastTrackHeadStart);
    mark_fault_degraded(*ex, window_end + kFaultDegradedGrace);
    if (config_.recorder != nullptr) {
      config_.recorder->record(
          log::EventKind::kLeaseRevoke,
          {{"user", static_cast<std::int64_t>(*ex)},
           {"reflector", static_cast<std::int64_t>(r)},
           {"failover", 1}});
    }
  }
}

void Coordinator::on_reflector_fault_close(std::size_t r) {
  --active_reflector_faults_.at(r);
}

void Coordinator::mark_fault_degraded(std::size_t user, sim::TimePoint until) {
  fault_until_.at(user) = std::max(fault_until_[user], until);
}

void Coordinator::device_probe_tick(sim::TimePoint now) {
  for (std::size_t r = 0; r < active_reflector_faults_.size(); ++r) {
    if (!device_health_.quarantined(r) ||
        !device_health_.probe_due(r, now)) {
      continue;
    }
    // The coordinator's probe is window-level: the device can only answer
    // clean once no fault window is open on it. (Per-user recalibration
    // after a reboot still happens through each AP's own commit path.)
    const bool good = active_reflector_faults_[r] == 0;
    device_health_.note_probe_result(r, now, good);
    if (good) {
      ++chaos_.device_restores;
      arbiter_.set_device_quarantined(r, false);
    }
  }
}

void Coordinator::orphan_watchdog(sim::TimePoint now) {
  for (std::size_t r = 0; r < orphan_since_.size(); ++r) {
    const auto holder = arbiter_.holder(r);
    bool mismatch = false;
    if (holder.has_value()) {
      const auto leased = users_[*holder]->strategy.manager().leased_reflector();
      mismatch = !leased.has_value() || *leased != r;
    }
    if (!mismatch) {
      orphan_armed_[r] = 0;
      continue;
    }
    if (orphan_armed_[r] == 0) {
      orphan_armed_[r] = 1;
      orphan_since_[r] = now;
      continue;
    }
    if (now - orphan_since_[r] > kOrphanGrace) {
      // The manager let go (or never knew) but the arbiter still shows a
      // holder: reap it so the reflector re-enters arbitration.
      arbiter_.strip_holder(r);
      ++chaos_.orphan_leases_reaped;
      orphan_armed_[r] = 0;
      if (config_.recorder != nullptr) {
        config_.recorder->record(
            log::EventKind::kLeaseRevoke,
            {{"user", static_cast<std::int64_t>(*holder)},
             {"reflector", static_cast<std::int64_t>(r)},
             {"orphan", 1}});
      }
    }
  }
}

void Coordinator::snapshot_leases() {
  if (config_.recorder == nullptr) {
    return;
  }
  for (std::size_t r = 0; r < orphan_since_.size(); ++r) {
    const auto holder = arbiter_.holder(r);
    config_.recorder->record(
        log::EventKind::kSnapshotLease,
        {{"r", static_cast<std::int64_t>(r)},
         {"holder", holder.has_value() ? static_cast<std::int64_t>(*holder)
                                       : std::int64_t{-1}},
         {"quar", device_health_.quarantined(r) ? 1 : 0}});
  }
}

void Coordinator::record_arena_fault(log::EventKind kind,
                                     const ArenaFault& fault) {
  if (config_.recorder == nullptr) {
    return;
  }
  config_.recorder->record(
      kind, {{"kind", static_cast<std::int64_t>(fault.kind)},
             {"res", static_cast<std::int64_t>(fault.resource)},
             {"mdb", static_cast<std::int64_t>(fault.magnitude_db * 1000.0)}});
}

void Coordinator::admission_tick(sim::TimePoint now) {
  sample_scratch_.resize(users_.size());
  for (std::size_t u = 0; u < users_.size(); ++u) {
    User& user = *users_[u];
    AdmissionController::Sample& sample = sample_scratch_[u];
    sample.ap = user.ap_index;
    sample.offered_mbps = user.offered_mbps;
    sample.mcs_rate_mbps = user.session.last_mcs_rate_mbps();
    sample.miss_fraction = 0.0;
    sample.fault_degraded = fault_degraded(u, now);
    if (sample.fault_degraded) {
      ++chaos_.fault_degraded_samples;
    }
    if (const net::Transport* transport = user.session.transport()) {
      const std::uint64_t misses = transport->live_deadline_misses();
      const std::uint64_t frames = transport->live_frames_emitted();
      const std::uint64_t dm = misses - user.last_misses;
      const std::uint64_t df = frames - user.last_frames;
      sample.miss_fraction =
          df > 0 ? static_cast<double>(dm) / static_cast<double>(df) : 0.0;
      user.last_misses = misses;
      user.last_frames = frames;
    }
  }
  if (config_.recorder != nullptr) {
    admission_state_scratch_.resize(users_.size());
    for (std::size_t u = 0; u < users_.size(); ++u) {
      admission_state_scratch_[u] = admission_.state(u);
    }
  }
  admission_.on_window(sample_scratch_, now);
  if (config_.recorder != nullptr) {
    for (std::size_t u = 0; u < users_.size(); ++u) {
      const AdmissionController::State before = admission_state_scratch_[u];
      const AdmissionController::State after = admission_.state(u);
      if (before == after) {
        continue;
      }
      log::EventKind kind = log::EventKind::kAdmissionReadmit;
      if (after == AdmissionController::State::kEvicted) {
        kind = log::EventKind::kAdmissionEvict;
      } else if (after == AdmissionController::State::kDegraded &&
                 before == AdmissionController::State::kAdmitted) {
        kind = log::EventKind::kAdmissionDegrade;
      }
      config_.recorder->record(kind, {{"user", static_cast<std::int64_t>(u)}});
    }
  }
  // A freshly evicted user must also surrender any reflector it holds.
  for (std::size_t u = 0; u < users_.size(); ++u) {
    if (admission_.transmitting(u)) {
      continue;
    }
    core::LinkManager& manager = users_[u]->strategy.manager();
    const auto leased = manager.leased_reflector();
    if (leased.has_value()) {
      arbiter_.release(u, *leased, now);
      manager.revoke_reflector(*leased);
    }
  }
}

void Coordinator::recompute_shares() {
  const std::size_t aps = ap_count_of(config_);
  ap_weight_scratch_.assign(aps, 0.0);
  for (std::size_t u = 0; u < users_.size(); ++u) {
    ap_weight_scratch_[users_[u]->ap_index] += admission_.weight(u);
  }
  for (std::size_t u = 0; u < users_.size(); ++u) {
    const double weight = admission_.weight(u);
    const double total = ap_weight_scratch_[users_[u]->ap_index];
    share_[u] = weight > 0.0 && total > 0.0 ? weight / total : 1.0;
  }
}

std::vector<Coordinator::UserResult> Coordinator::run() {
  const sim::TimePoint start = simulator_.now();
  end_ = start + config_.session.duration;
  if (config_.recorder != nullptr) {
    // Self-describing coordinator log: the offline verifier reads the
    // lease-liveness bound (invariant F) from here, no simulator needed.
    config_.recorder->record(
        log::EventKind::kParams,
        {{"tick_us", std::chrono::duration_cast<std::chrono::microseconds>(
                         kControlInterval)
                         .count()},
         {"revoke_grace_us",
          std::chrono::duration_cast<std::chrono::microseconds>(kRevokeGrace)
              .count()},
         {"reflectors", static_cast<std::int64_t>(orphan_since_.size())},
         {"users", static_cast<std::int64_t>(users_.size())}});
  }
  for (auto& user : users_) {
    user->session.start();  // user order = event insertion order = tie order
  }
  simulator_.at(start + kControlInterval, [this] { control_tick(); });
  simulator_.run_until(end_);

  std::vector<UserResult> results;
  results.reserve(users_.size());
  for (std::size_t u = 0; u < users_.size(); ++u) {
    UserResult result;
    result.report = users_[u]->session.finish();
    const core::LinkManager& manager = users_[u]->strategy.manager();
    result.link_stats = manager.stats();
    if (result.report.arena.has_value()) {
      vr::ArenaLinkStats& a = *result.report.arena;
      a.reflector_denials = manager.stats().denied_handovers;
      a.lease_grants = static_cast<int>(arbiter_.user_stats(u).grants);
      a.lease_revocations =
          static_cast<int>(arbiter_.user_stats(u).revocations);
      a.admission_degrades = admission_.counters(u).degrades;
      a.admission_evictions = admission_.counters(u).evictions;
      a.admission_readmissions = admission_.counters(u).readmissions;
      a.final_admission_state = static_cast<int>(admission_.state(u));
      a.ledger_checks = users_[u]->ledger_checks;
      a.ledger_violations = users_[u]->ledger_violations;
    }
    results.push_back(std::move(result));
  }
  return results;
}

vr::QoeReport Coordinator::standalone_run(const core::Scene& prototype,
                                          const Config& config,
                                          const MotionFactory& motion,
                                          const ScriptFactory& script,
                                          std::size_t user) {
  sim::Simulator simulator;
  UserWorld world = build_user_world(prototype, config, user);
  User standalone{simulator, std::move(world), motion, script, user};
  return standalone.session.run();
}

}  // namespace movr::arena
