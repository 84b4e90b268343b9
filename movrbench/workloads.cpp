#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <random>
#include <utility>

#include <arena/coordinator.hpp>
#include <channel/obstacle.hpp>
#include <core/config_epoch.hpp>
#include <core/coverage.hpp>
#include <core/gain_control.hpp>
#include <core/placement.hpp>
#include <geom/angle.hpp>
#include <log/reader.hpp>
#include <log/recorder.hpp>
#include <log/verify.hpp>
#include <sim/control_channel.hpp>
#include <sim/fault_injector.hpp>
#include <sim/rng.hpp>
#include <vr/fault_scenarios.hpp>
#include <vr/session.hpp>

namespace movrbench {

namespace {

using namespace movr;
using namespace std::chrono_literals;
using geom::deg_to_rad;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double uniform(std::mt19937_64& g, double lo, double hi) {
  return std::uniform_real_distribution<double>{lo, hi}(g);
}

void mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
}

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Aims a reflector at the AP and the headset by ground truth and runs the
/// gain controller against the AP's drive level.
void calibrate(core::Scene& scene, core::MovrReflector& reflector,
               std::mt19937_64& rng) {
  reflector.front_end().steer_rx(scene.true_reflector_angle_to_ap(reflector));
  reflector.front_end().steer_tx(
      scene.true_reflector_angle_to_headset(reflector));
  scene.ap().node().steer_toward(reflector.position());
  core::GainController::run(reflector.front_end(),
                            scene.reflector_input(reflector), rng);
}

/// Folds a unit's transport metrics into the pooled outputs and checks
/// that its packet ledger closes.
void account_transport(const vr::QoeReport& report, Unit& unit,
                       Checks& checks, const char* who) {
  if (!report.transport.has_value()) {
    checks.expect(false, std::string{who} + ": no transport metrics");
    return;
  }
  const net::TransportMetrics& t = *report.transport;
  checks.expect(t.conserved(),
                std::string{who} + ": transport packet ledger open");
  for (std::size_t i = 0; i < unit.latency.bins.size(); ++i) {
    unit.latency.bins[i] += i < t.histogram.bins.size() ? t.histogram.bins[i]
                                                        : 0;
  }
  unit.latency.overflow += t.histogram.overflow;
  unit.frames_emitted += t.frames_emitted;
  unit.packets_enqueued += t.packets_enqueued;
  unit.retransmits += t.retransmits;
  unit.packets_recovered += t.packets_recovered;
}

void account_handovers(const core::LinkManager::Stats& s, Unit& unit) {
  unit.handovers_ok += static_cast<std::uint64_t>(s.handovers_to_reflector +
                                                  s.handovers_to_direct);
  unit.handovers_failed += static_cast<std::uint64_t>(s.failed_handovers);
}

// --- arena_dense -----------------------------------------------------------

constexpr geom::Vec2 kArenaAps[4] = {
    {0.4, 0.4}, {7.6, 0.4}, {7.6, 7.6}, {0.4, 7.6}};
constexpr double kArenaApAzimuthDeg[4] = {45.0, 135.0, 225.0, 315.0};
constexpr geom::Vec2 kArenaCenter{4.0, 4.0};

/// 8x8 m empty floor, one reflector at each wall midpoint facing in.
core::Scene arena_scene() {
  core::Scene scene{channel::Room{8.0, 8.0},
                    core::ApRadio{kArenaAps[0], deg_to_rad(45.0)},
                    core::HeadsetRadio{kArenaCenter, 0.0}};
  scene.add_reflector({4.0, 7.7}, deg_to_rad(265.0));
  scene.add_reflector({7.7, 4.0}, deg_to_rad(175.0));
  scene.add_reflector({0.3, 4.0}, deg_to_rad(355.0));
  scene.add_reflector({4.0, 0.3}, deg_to_rad(85.0));
  return scene;
}

Unit arena_unit(std::uint64_t seed, Size size, Checks& checks) {
  const std::size_t users = size == Size::kFull ? 32 : 4;
  const double duration_s = size == Size::kFull ? 0.5 : 0.25;

  arena::Coordinator::Config config;
  config.users = users;
  config.seed = seed;
  config.ap_positions.assign(std::begin(kArenaAps), std::end(kArenaAps));
  for (const double deg : kArenaApAzimuthDeg) {
    config.ap_orientations.push_back(deg_to_rad(deg));
  }
  config.arbiter.policy = arena::ReflectorArbiter::Policy::kPriorityAging;
  config.arbiter.lease_duration = 250ms;
  config.arbiter.aging_per_second = 4.0;
  config.admission.evict_grace = 2s;
  config.link.skip_occluded_candidates = true;
  config.session.duration = sim::from_seconds(duration_s);
  net::TransportConfig transport;
  transport.source.target_mbps = 300.0;
  config.session.transport = transport;

  // Each user starts in its own AP's quadrant (seeded jitter) and wanders.
  auto motion = [seed](std::size_t u, const core::Scene& scene)
      -> std::unique_ptr<vr::Motion> {
    const sim::RngRegistry rngs{seed};
    auto rng = rngs.stream("arena.pos", u);
    const geom::Vec2 ap = kArenaAps[u % 4];
    const geom::Vec2 toward = (kArenaCenter - ap).normalized();
    const geom::Vec2 perp{-toward.y, toward.x};
    geom::Vec2 start = ap + toward * uniform(rng, 1.8, 3.2) +
                       perp * uniform(rng, -1.1, 1.1);
    start.x = std::clamp(start.x, 0.9, 7.1);
    start.y = std::clamp(start.y, 0.9, 7.1);
    return std::make_unique<vr::PlayerMotion>(
        scene.room(), start, rngs.stream("arena.motion", u)());
  };
  // Staggered hand raises plus a diagonal person crossing every 5 s, both
  // starting early enough that a 0.5 s cell sees every user blocked.
  auto script = [duration_s](std::size_t u) {
    const sim::TimePoint end{sim::from_seconds(duration_s)};
    std::vector<vr::BlockageEvent> events =
        vr::periodic_hand_raises(
            sim::TimePoint{sim::from_seconds(
                0.1 + 0.05 * static_cast<double>(u % 7))},
            sim::from_seconds(0.7), sim::from_seconds(2.4), end)
            .events();
    bool flip = false;
    for (double t = 0.2; t < duration_s; t += 5.0) {
      vr::BlockageEvent person;
      person.kind = vr::BlockageEvent::Kind::kPersonCrossing;
      person.start = sim::TimePoint{sim::from_seconds(t)};
      person.duration = sim::from_seconds(2.5);
      person.path_from = flip ? geom::Vec2{7.4, 0.6} : geom::Vec2{0.6, 0.6};
      person.path_to = flip ? geom::Vec2{0.6, 7.4} : geom::Vec2{7.4, 7.4};
      flip = !flip;
      events.push_back(person);
    }
    return vr::BlockageScript{std::move(events)};
  };

  Unit unit;
  const auto t0 = Clock::now();
  const core::Scene prototype = arena_scene();
  sim::Simulator simulator;
  arena::Coordinator coordinator{simulator, prototype, config, motion,
                                 script};
  const auto t1 = Clock::now();
  const auto results = coordinator.run();
  const auto t2 = Clock::now();
  unit.setup_s = seconds_between(t0, t1);
  unit.work_s = seconds_between(t1, t2);
  unit.user_sim_s = static_cast<double>(users) * duration_s;
  unit.sim_events = simulator.events_executed();

  std::uint64_t h = sim::fnv1a("arena_dense");
  for (std::size_t u = 0; u < results.size(); ++u) {
    const auto& r = results[u];
    const std::string who = "arena user " + std::to_string(u);
    mix(h, arena::qoe_fingerprint(r.report));
    unit.frames += r.report.frames;
    unit.glitched_frames += r.report.glitched_frames;
    account_transport(r.report, unit, checks, who.c_str());
    account_handovers(r.link_stats, unit);
    if (!r.report.arena.has_value()) {
      checks.expect(false, who + ": no arena stats");
      continue;
    }
    const vr::ArenaLinkStats& a = *r.report.arena;
    mix(h, static_cast<std::uint64_t>(a.lease_grants));
    mix(h, static_cast<std::uint64_t>(a.lease_revocations));
    mix(h, static_cast<std::uint64_t>(a.admission_evictions));
    unit.admission_evictions +=
        static_cast<std::uint64_t>(a.admission_evictions);
    checks.expect(a.ledger_checks > 0, who + ": no ledger audits ran");
    checks.expect_all(a.ledger_checks, a.ledger_violations,
                      who + ": 20 ms ledger audits open");
  }
  unit.fingerprint = h;
  return unit;
}

// --- session_chaos ---------------------------------------------------------

constexpr const char* kLogKey = "movrbench";

Unit session_unit(std::uint64_t seed, Size size, Checks& checks) {
  const double duration_s = size == Size::kFull ? 30.0 : 8.0;
  const auto duration = sim::from_seconds(duration_s);
  const sim::TimePoint end{duration};

  Unit unit;
  const auto t0 = Clock::now();
  const sim::RngRegistry rngs{seed};
  auto chaos = rngs.stream("chaos");

  // The paper's 5x5 m office: AP in a corner, headset placed per seed, two
  // wall reflectors calibrated by ground truth.
  core::Scene scene{
      channel::Room{5.0, 5.0}, core::ApRadio{{0.4, 0.4}, deg_to_rad(45.0)},
      core::HeadsetRadio{{uniform(chaos, 2.2, 3.2), uniform(chaos, 1.6, 2.6)},
                         0.0}};
  scene.ap().node().steer_toward(scene.headset().node().position());
  scene.headset().node().face_toward(scene.ap().node().position());
  auto& r0 = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0));
  auto& r1 = scene.add_reflector({3.6, 4.8}, deg_to_rad(265.0));
  auto cal_rng = rngs.stream("cal");
  calibrate(scene, r0, cal_rng);
  calibrate(scene, r1, cal_rng);

  // Bluetooth control channel with every fault axis on.
  sim::Simulator simulator;
  sim::ControlChannel::Config channel_config;
  channel_config.loss_probability = uniform(chaos, 0.02, 0.12);
  channel_config.ack_loss_fraction = 0.25;
  channel_config.jitter = sim::Duration{
      static_cast<sim::Duration::rep>(uniform(chaos, 0.5e6, 2.0e6))};
  channel_config.corruption_probability = uniform(chaos, 0.005, 0.03);
  channel_config.undetected_corruption_fraction = 0.1;
  channel_config.reorder_probability = uniform(chaos, 0.02, 0.12);
  sim::ControlChannel control{simulator, channel_config, rngs.stream("bt")};

  log::Recorder::Config log_config;
  log_config.key = kLogKey;
  log_config.bench = "movrbench.session_chaos";
  log_config.seed = seed;
  log::Recorder recorder{std::move(log_config)};
  recorder.bind_clock(&simulator);

  core::LinkManager::Config manager_config;
  manager_config.recorder = &recorder;
  manager_config.reflector_reachable = [&control](std::size_t) {
    return !control.partitioned();
  };
  vr::MovrStrategy strategy{simulator, scene, rngs.stream("mgr"),
                            manager_config};

  core::ReflectorConfigAgent::Config agent_config;
  core::ReflectorConfigAgent agent0{simulator, control, r0, agent_config,
                                    rngs.stream("agent", 0)};
  core::ReflectorConfigAgent agent1{simulator, control, r1, agent_config,
                                    rngs.stream("agent", 1)};
  agent0.set_input_probe([&] { return scene.reflector_input(r0); });
  agent1.set_input_probe([&] { return scene.reflector_input(r1); });
  agent0.set_recorder(&recorder, 0);
  agent1.set_recorder(&recorder, 1);
  agent0.start();
  agent1.start();

  core::ControlPlane plane{simulator, control, {}};
  plane.set_recorder(&recorder);
  strategy.manager().health().set_recorder(&recorder);
  plane.bind_health(&strategy.manager().health());
  plane.manage(0, r0, &agent0);
  plane.manage(1, r1, &agent1);
  plane.start();
  const auto epoch_of = [](const core::MovrReflector& r) {
    return core::ConfigEpoch{r.front_end().rx_array().steering(),
                             r.front_end().tx_array().steering(),
                             r.front_end().gain_code()};
  };
  plane.commit(0, epoch_of(r0));
  plane.commit(1, epoch_of(r1));

  // Fault schedule: a hand blockage overlapping a control partition, then
  // per 12 s a partition, a brownout, an obstacle storm and a blockage;
  // a reboot, an amplifier sag and a sensor-bias drift on reflector 0.
  sim::FaultInjector injector{simulator};
  const auto add_blockage = [&](sim::TimePoint at, sim::Duration len) {
    injector.inject(
        "hand_blockage", at, len,
        [&scene] {
          scene.room().add_obstacle(channel::make_hand(
              scene.headset().node().position(),
              scene.ap().node().position() -
                  scene.headset().node().position()));
        },
        [&scene] { scene.room().remove_obstacles("hand"); });
  };
  const auto nanos = [](double ns) {
    return sim::Duration{static_cast<sim::Duration::rep>(ns)};
  };
  add_blockage(sim::TimePoint{4s}, nanos(uniform(chaos, 3.5e9, 5.0e9)));
  injector.inject_control_partition(control, sim::TimePoint{5s},
                                    nanos(uniform(chaos, 1.2e9, 2.5e9)));
  const int extra =
      duration_s > 12.0 ? static_cast<int>((duration_s - 12.0) / 12.0) : 0;
  for (int i = 0; i < extra; ++i) {
    const double base_s = 10.0 + 12.0 * i;
    const auto at = [&](double lo, double hi) {
      return sim::TimePoint{sim::from_seconds(base_s + uniform(chaos, lo, hi))};
    };
    injector.inject_control_partition(control, at(0.0, 4.0),
                                      nanos(uniform(chaos, 0.6e9, 1.8e9)));
    const sim::TimePoint brownout_at = at(4.0, 8.0);
    const sim::Duration brownout_len = nanos(uniform(chaos, 0.5e9, 2.0e9));
    const double brownout_loss = uniform(chaos, 0.3, 0.8);
    const sim::Duration brownout_latency = nanos(uniform(chaos, 2.0e6, 8.0e6));
    injector.inject_control_brownout(control, brownout_at, brownout_len,
                                     brownout_loss, brownout_latency);
    vr::ObstacleStormConfig storm;
    storm.start = at(0.0, 6.0);
    storm.duration = nanos(uniform(chaos, 1.5e9, 3.5e9));
    storm.people = 2 + static_cast<int>(uniform(chaos, 0.0, 3.0));
    storm.seed = seed * 1000 + static_cast<std::uint64_t>(i);
    vr::add_obstacle_storm(injector, scene.room(), storm);
    const sim::TimePoint blockage_at = at(6.0, 9.0);
    add_blockage(blockage_at, nanos(uniform(chaos, 1.0e9, 3.0e9)));
  }
  if (duration_s >= 20.0) {
    vr::add_reflector_reboot(
        injector, r0,
        sim::TimePoint{
            sim::from_seconds(uniform(chaos, 10.0, duration_s - 6.0))});
    const sim::TimePoint sag_at{sim::from_seconds(uniform(chaos, 10.0, 14.0))};
    vr::add_gain_sag(injector, r0, sag_at, 4s,
                     rf::Decibels{uniform(chaos, 2.0, 6.0)});
    const sim::TimePoint drift_at{
        sim::from_seconds(uniform(chaos, 14.0, 18.0))};
    vr::add_sensor_bias_drift(injector, r0, drift_at, 4s,
                              uniform(chaos, 0.005, 0.02));
  }

  // Self-describing log: the offline verifier replays the control-plane
  // invariants against these bounds from the per-20 ms snapshots below.
  const sim::Duration grace = agent_config.silence_timeout +
                              2 * agent_config.watchdog_tick + 100ms;
  recorder.record(log::EventKind::kParams,
                  {{"grace_us", grace.count() / 1000},
                   {"osc_us", 1'000'000},
                   {"div_us", 2'500'000},
                   {"watchdog_us", 2'000'000},
                   {"slack_us", 500'000},
                   {"tick_us", 20'000},
                   {"reflectors", 2}});

  vr::Session::Config session_config;
  session_config.duration = duration;
  session_config.faults = &injector;
  session_config.control_plane = &plane;
  session_config.recorder = &recorder;
  net::TransportConfig transport;
  transport.source.target_mbps = 800.0;
  transport.ack_delay = std::chrono::microseconds{500};
  transport.arq.window = 16;
  transport.adaptive_fec = true;
  transport.source.seed = rngs.stream("src")();
  transport.seed = rngs.stream("net")();
  session_config.transport = transport;
  sim::BurstChannel::Config burst;
  burst.seed = rngs.stream("burst")();
  burst.loss_bad = 0.25;
  session_config.burst_loss = burst;
  vr::Session session{simulator, scene, strategy, nullptr, nullptr,
                      session_config};

  // Every 20 ms: mirror fault windows, the control ledger and each
  // reflector's state into the log (pure reads), and audit the transport
  // packet ledger.
  std::vector<std::pair<bool, bool>> fault_logged(injector.timeline().size(),
                                                  {false, false});
  const core::ReflectorConfigAgent* agents[2] = {&agent0, &agent1};
  const core::MovrReflector* reflectors[2] = {&r0, &r1};
  std::uint64_t ledger_audits = 0;
  std::uint64_t ledger_open = 0;
  const auto tick = [&] {
    const auto now = simulator.now();
    const auto& timeline = injector.timeline();
    for (std::size_t fi = 0; fi < timeline.size(); ++fi) {
      const sim::FaultInjector::AppliedFault& fault = timeline[fi];
      if (fault.applied && !fault_logged[fi].first) {
        fault_logged[fi].first = true;
        recorder.record(log::EventKind::kFaultOpen,
                        {{"name_h", log::Recorder::name_hash(fault.name)},
                         {"start_us", fault.start.count() / 1000},
                         {"end_us", fault.end.count() / 1000}});
      }
      if (fault.cleared && !fault_logged[fi].second) {
        fault_logged[fi].second = true;
        recorder.record(log::EventKind::kFaultClose,
                        {{"name_h", log::Recorder::name_hash(fault.name)},
                         {"start_us", fault.start.count() / 1000},
                         {"end_us", fault.end.count() / 1000}});
      }
    }
    const auto& cs = control.stats();
    recorder.record(log::EventKind::kSnapshotControl,
                    {{"sent", static_cast<std::int64_t>(cs.sent)},
                     {"delivered", static_cast<std::int64_t>(cs.delivered)},
                     {"dropped", static_cast<std::int64_t>(cs.dropped)},
                     {"undeliv", static_cast<std::int64_t>(cs.undeliverable)},
                     {"in_flight", static_cast<std::int64_t>(cs.in_flight)},
                     {"part", control.partitioned() ? 1 : 0}});
    for (int i = 0; i < 2; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      const auto state = reflectors[i]->front_end().process(
          scene.reflector_input(*reflectors[i]));
      recorder.record(
          log::EventKind::kSnapshotReflector,
          {{"r", i},
           {"gain",
            static_cast<std::int64_t>(reflectors[i]->front_end().gain_code())},
           {"safe_code", static_cast<std::int64_t>(agents[i]->safe_gain_code())},
           {"safe_mode", agents[i]->in_safe_mode() ? 1 : 0},
           {"stable", state.stable ? 1 : 0},
           {"div_age_us", plane.divergence_age(idx, now).count() / 1000},
           {"plane_part", plane.partitioned(idx) ? 1 : 0}});
    }
    ++ledger_audits;
    ledger_open += session.transport()->ledger_closes() ? 0 : 1;
  };
  for (sim::TimePoint t{20ms}; t < end; t += 20ms) {
    simulator.at(t, tick);
  }
  const auto t1 = Clock::now();

  const vr::QoeReport report = session.run();
  recorder.close();
  const auto t2 = Clock::now();
  const log::ParsedLog parsed = log::parse_log(recorder.buffer());
  const log::VerifyReport verdict = log::verify_log(parsed, kLogKey);
  const auto t3 = Clock::now();

  unit.setup_s = seconds_between(t0, t1);
  unit.work_s = seconds_between(t1, t3);
  unit.log_verify_s = seconds_between(t2, t3);
  unit.user_sim_s = duration_s;
  unit.sim_events = simulator.events_executed();
  unit.log_records = recorder.records();
  unit.log_bytes = recorder.buffer().size();
  unit.frames = report.frames;
  unit.glitched_frames = report.glitched_frames;
  account_transport(report, unit, checks, "session");
  account_handovers(strategy.manager().stats(), unit);

  checks.expect(ledger_audits > 0, "session: no ledger audits ran");
  checks.expect_all(ledger_audits, ledger_open,
                    "session: 20 ms ledger audits open");
  std::string why = parsed.ok() ? std::string{} : parsed.error;
  if (!verdict.chain_issues.empty()) {
    why = verdict.chain_issues.front().what;
  } else if (!verdict.invariant_issues.empty()) {
    why = verdict.invariant_issues.front().what;
  }
  checks.expect(parsed.ok() && verdict.ok() && verdict.has_params,
                "session: event log does not verify offline: " + why);

  std::uint64_t h = sim::fnv1a("session_chaos");
  mix(h, arena::qoe_fingerprint(report));
  mix(h, control.stats().sent);
  mix(h, control.stats().delivered);
  mix(h, plane.incidents().partitions_entered);
  mix(h, plane.incidents().divergences_detected);
  mix(h, plane.incidents().reconciliations);
  mix(h, plane.incidents().safe_mode_entries);
  mix(h, recorder.records());
  mix(h, recorder.chain());
  unit.fingerprint = h;
  return unit;
}

// --- plan_room -------------------------------------------------------------

Unit plan_unit(std::uint64_t seed, Size size, unsigned threads,
               Checks& checks) {
  const bool full = size == Size::kFull;
  const sim::RngRegistry rngs{seed};
  const channel::Room room{8.0, 8.0};
  const geom::Vec2 ap = kArenaAps[0];

  core::PlacementPlanner::Config config;
  config.trials = full ? 120 : 16;
  config.mount_spacing_m = full ? 1.0 : 2.5;
  config.max_reflectors = full ? 3 : 1;
  config.threads = threads;

  Unit unit;
  const auto t0 = Clock::now();
  const core::PlacementPlanner planner{config, rngs.stream("plan")()};
  const core::PlacementPlan plan = planner.plan(room, ap);
  const auto t1 = Clock::now();

  // The deployment the plan recommends, calibrated like the live system.
  core::Scene scene{channel::Room{room},
                    core::ApRadio{ap, deg_to_rad(45.0)},
                    core::HeadsetRadio{kArenaCenter, 0.0}};
  auto cal_rng = rngs.stream("cal");
  for (const core::PlacementCandidate& mount : plan.chosen) {
    calibrate(scene, scene.add_reflector(mount.position, mount.orientation),
              cal_rng);
  }
  const auto t2 = Clock::now();
  const core::CoverageMap coverage =
      core::compute_coverage(scene, full ? 0.25 : 1.0, 0.5, threads);
  const auto t3 = Clock::now();

  unit.setup_s = seconds_between(t1, t2);
  unit.work_s = seconds_between(t0, t1) + seconds_between(t2, t3);
  unit.outage = plan.outage_curve.empty() ? 1.0 : plan.outage_curve.back();

  checks.expect(plan.outage_curve.size() == plan.chosen.size() + 1,
                "plan: outage curve length != reflectors + 1");
  for (std::size_t i = 0; i < plan.outage_curve.size(); ++i) {
    const double o = plan.outage_curve[i];
    checks.expect(o >= 0.0 && o <= 1.0 &&
                      (i == 0 || o < plan.outage_curve[i - 1]),
                  "plan: outage curve not strictly decreasing in [0, 1]");
  }
  checks.expect(coverage.cells.size() ==
                    static_cast<std::size_t>(coverage.cells_x) *
                        static_cast<std::size_t>(coverage.cells_y),
                "coverage: grid size mismatch");

  std::uint64_t h = sim::fnv1a("plan_room");
  for (const core::PlacementCandidate& mount : plan.chosen) {
    mix(h, bits(mount.position.x));
    mix(h, bits(mount.position.y));
    mix(h, bits(mount.orientation));
  }
  for (const double o : plan.outage_curve) {
    mix(h, bits(o));
  }
  for (const core::CoverageCell& cell : coverage.cells) {
    checks.expect(std::isfinite(cell.direct_snr.value()) &&
                      std::isfinite(cell.via_snr.value()),
                  "coverage: non-finite SNR");
    mix(h, bits(cell.direct_snr.value()));
    mix(h, bits(cell.via_snr.value()));
    mix(h, static_cast<std::uint64_t>(cell.best_reflector + 1));
  }
  unit.fingerprint = h;
  return unit;
}

}  // namespace

void Checks::expect(bool ok, const std::string& what) {
  expect_all(1, ok ? 0 : 1, what);
}

void Checks::expect_all(std::uint64_t checked, std::uint64_t bad,
                        const std::string& what) {
  attempted += checked;
  failed += bad;
  if (bad > 0 && failures.size() < 8) {
    failures.push_back(what + " (" + std::to_string(bad) + " of " +
                       std::to_string(checked) + ")");
  }
}

bool parse_workload(std::string_view name, Workload& out) {
  for (const Workload w :
       {Workload::kArenaDense, Workload::kSessionChaos, Workload::kPlanRoom}) {
    if (name == workload_name(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kArenaDense:
      return "arena_dense";
    case Workload::kSessionChaos:
      return "session_chaos";
    case Workload::kPlanRoom:
      return "plan_room";
  }
  return "?";
}

Unit run_unit(Workload workload, std::uint64_t seed, Size size,
              unsigned threads, Checks& checks) {
  switch (workload) {
    case Workload::kArenaDense:
      return arena_unit(seed, size, checks);
    case Workload::kSessionChaos:
      return session_unit(seed, size, checks);
    case Workload::kPlanRoom:
      return plan_unit(seed, size, threads, checks);
  }
  return {};
}

}  // namespace movrbench
