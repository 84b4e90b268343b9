// Seed-replayable chaos soak for the hardened control plane.
//
// Each seed composes a full fault cocktail over a live MoVR session —
// obstacle storms, hand blockages, control partitions, brownouts, payload
// corruption, reordering, a reflector reboot, amplifier sag, sensor bias
// drift, and the lossy frame transport — records the run's signed event
// log in memory (control and reflector snapshots every 20 ms of sim time,
// transport ledgers, searches, epochs, partitions), and gates on
// log::verify_log replaying the global safety invariants from those bytes:
//
//   A  gain <= leakage margin: once a control partition has outlasted the
//      silence watchdog (plus one tick of grace), every reflector's gain
//      code must sit at/below its provably-stable safe floor. This is the
//      invariant a build with the watchdog disabled MUST fail.
//   B  no sustained oscillation: the amplifier loop may go unstable
//      transiently (an undetected-corrupt gain slipping through), but the
//      current guard + digest replay must restore stability within 1 s.
//   C  config divergence is reconciled within a bound (2.5 s) for every
//      reachable reflector (partitioned ones are excluded — nothing can
//      cross a partition).
//   D  the control-channel and transport packet ledgers close at every
//      snapshot.
//   E  every angle search launched into the chaos terminates — completed,
//      or failed with a reason — inside its watchdog budget.
//
// The gate also fails when the log is too thin to prove anything: no
// params record, a 20 ms tick without its control and reflector
// snapshots, or a launched search missing from the log.
//
// Every random draw derives from the seed via sim::RngRegistry, so a
// failing seed replays bit-identically; on failure the bench prints the
// exact replay command. Each row carries a fingerprint hash of the run's
// counters so a replay can be compared against the sweep byte-for-byte.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <core/angle_search.hpp>
#include <core/config_epoch.hpp>
#include <log/reader.hpp>
#include <log/recorder.hpp>
#include <log/verify.hpp>
#include <sim/fault_injector.hpp>
#include <sim/rng.hpp>
#include <vr/fault_scenarios.hpp>
#include <vr/session.hpp>

#include "harness.hpp"

namespace {

using namespace movr;
using bench::uniform;
using geom::deg_to_rad;
using namespace std::chrono_literals;

struct SeedResult {
  std::uint64_t seed{0};
  vr::QoeReport report;
  sim::ControlChannel::Stats channel;
  core::ControlPlaneIncidents incidents;
  /// Every issue log::verify_log found in the run's log, chain issues first.
  std::vector<log::Issue> violations;
  /// Why the log is too thin to prove the invariants; empty when it is not.
  std::string thin;
  std::size_t searches{0};
  std::uint64_t ticks_checked{0};
  std::uint64_t fingerprint{0};
};

SeedResult run_seed(std::uint64_t seed, double duration_s,
                    bool watchdog_enabled,
                    const std::string& event_log_dir) {
  SeedResult result;
  result.seed = seed;
  const auto duration = sim::from_seconds(duration_s);
  const sim::TimePoint end{duration};
  sim::RngRegistry rngs{seed};
  auto chaos = rngs.stream("chaos");

  // --- scene: the paper office, headset position varied per seed --------
  auto scene = bench::paper_scene(
      {uniform(chaos, 2.2, 3.2), uniform(chaos, 1.6, 2.6)}, false);
  scene.aim_direct();
  auto& r0 = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0));
  auto& r1 = scene.add_reflector({3.6, 4.8}, deg_to_rad(265.0));
  auto cal_rng = rngs.stream("cal");
  scene.calibrate_reflector(r0, cal_rng);
  scene.calibrate_reflector(r1, cal_rng);

  // --- control channel: every fault axis on, severity drawn per seed ----
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

  // --- signed event log: pure-read hooks, no RNG consumed. Always kept
  // in memory for the verdict; --event-log also writes it to disk. ------
  log::Recorder::Config log_config;
  if (!event_log_dir.empty()) {
    log_config.path = event_log_dir + "/seed" + std::to_string(seed) + ".log";
  }
  log_config.bench = "chaos_soak";
  log_config.seed = seed;
  log::Recorder recorder{std::move(log_config)};
  recorder.bind_clock(&simulator);

  // The manager's register writes stand for BT exchanges: gate them on the
  // channel, so it cannot command a reflector across a partition.
  core::LinkManager::Config manager_config;
  manager_config.recorder = &recorder;
  manager_config.reflector_reachable = [&control](std::size_t) {
    return !control.partitioned();
  };
  vr::MovrStrategy strategy{simulator, scene, rngs.stream("mgr"),
                            manager_config};

  // --- hardened control plane: one firmware agent per reflector ---------
  core::ReflectorConfigAgent::Config agent_config;
  agent_config.watchdog_enabled = watchdog_enabled;
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

  // --- fault schedule, drawn from the seed ------------------------------
  sim::FaultInjector injector{simulator};

  // One guaranteed blockage + partition overlap: the acceptance scenario
  // (partition while riding the reflector) happens in EVERY seed.
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
  add_blockage(sim::TimePoint{4s},
               sim::Duration{static_cast<sim::Duration::rep>(
                   uniform(chaos, 3.5e9, 5.0e9))});
  injector.inject_control_partition(
      control, sim::TimePoint{5s},
      sim::Duration{
          static_cast<sim::Duration::rep>(uniform(chaos, 1.2e9, 2.5e9))});

  // Extra partition windows, brownouts, storms and blockages spread over
  // the rest of the run.
  const double budget_s = duration_s - 12.0;
  const int extra = budget_s > 0.0 ? static_cast<int>(budget_s / 12.0) : 0;
  for (int i = 0; i < extra; ++i) {
    const double base_s = 10.0 + 12.0 * i;
    injector.inject_control_partition(
        control, sim::TimePoint{sim::from_seconds(base_s + uniform(chaos, 0.0, 4.0))},
        sim::Duration{
            static_cast<sim::Duration::rep>(uniform(chaos, 0.6e9, 1.8e9))});
    injector.inject_control_brownout(
        control, sim::TimePoint{sim::from_seconds(base_s + uniform(chaos, 4.0, 8.0))},
        sim::Duration{
            static_cast<sim::Duration::rep>(uniform(chaos, 0.5e9, 2.0e9))},
        /*extra_loss=*/uniform(chaos, 0.3, 0.8),
        /*extra_latency=*/sim::Duration{static_cast<sim::Duration::rep>(
            uniform(chaos, 2.0e6, 8.0e6))});
    vr::ObstacleStormConfig storm;
    storm.start = sim::TimePoint{sim::from_seconds(base_s + uniform(chaos, 0.0, 6.0))};
    storm.duration = sim::Duration{
        static_cast<sim::Duration::rep>(uniform(chaos, 1.5e9, 3.5e9))};
    storm.people = 2 + static_cast<int>(uniform(chaos, 0.0, 3.0));
    storm.seed = seed * 1000 + static_cast<std::uint64_t>(i);
    vr::add_obstacle_storm(injector, scene.room(), storm);
    add_blockage(sim::TimePoint{sim::from_seconds(base_s + uniform(chaos, 6.0, 9.0))},
                 sim::Duration{static_cast<sim::Duration::rep>(
                     uniform(chaos, 1.0e9, 3.0e9))});
  }
  // One reflector reboot (registers wiped, boot epoch bumped) mid-run, and
  // slow hardware drift on top.
  if (duration_s >= 20.0) {
    vr::add_reflector_reboot(
        injector, r0,
        sim::TimePoint{sim::from_seconds(uniform(chaos, 10.0, duration_s - 6.0))});
    vr::add_gain_sag(injector, r0,
                     sim::TimePoint{sim::from_seconds(uniform(chaos, 10.0, 14.0))},
                     4s, rf::Decibels{uniform(chaos, 2.0, 6.0)});
    vr::add_sensor_bias_drift(
        injector, r0, sim::TimePoint{sim::from_seconds(uniform(chaos, 14.0, 18.0))},
        4s, /*peak_bias_a=*/uniform(chaos, 0.005, 0.02));
  }

  // --- angle searches launched into the chaos (invariant E) -------------
  auto search_config = core::make_search_config(4.0);
  search_config.watchdog = 2s;
  search_config.abort_after_failed_commands = 8;
  std::vector<std::unique_ptr<core::IncidenceSearch>> searches;
  for (double at_s = 8.0; at_s + 3.0 < duration_s; at_s += 17.0) {
    const auto i = searches.size();
    searches.push_back(std::make_unique<core::IncidenceSearch>(
        simulator, control, scene, r1, search_config,
        rngs.stream("search", i)));
    simulator.at(sim::TimePoint{sim::from_seconds(at_s)}, [&, i] {
      recorder.record(log::EventKind::kSearchLaunch,
                      {{"id", static_cast<std::int64_t>(i)}});
      searches[i]->start([&, i](const core::IncidenceResult& r) {
        recorder.record(
            log::EventKind::kSearchDone,
            {{"id", static_cast<std::int64_t>(i)},
             {"completed", r.completed ? 1 : 0},
             {"reason_h", r.failure_reason.empty()
                              ? 0
                              : log::Recorder::name_hash(r.failure_reason)},
             {"took_us", r.duration.count() / 1000}});
      });
    });
  }
  result.searches = searches.size();

  // --- the per-20 ms snapshots the verifier replays A-D from ------------
  const sim::Duration grace = agent_config.silence_timeout +
                              2 * agent_config.watchdog_tick +
                              sim::Duration{100'000'000};
  const sim::Duration oscillation_bound{1'000'000'000};
  const sim::Duration divergence_bound{2'500'000'000};
  // The params record makes the log self-describing: the verifier replays
  // A/B/C/E against exactly these bounds (tick_us is the snapshot cadence
  // — one tick of quantisation grace for the E bound).
  recorder.record(log::EventKind::kParams,
                  {{"grace_us", grace.count() / 1000},
                   {"osc_us", oscillation_bound.count() / 1000},
                   {"div_us", divergence_bound.count() / 1000},
                   {"watchdog_us", search_config.watchdog.count() / 1000},
                   {"slack_us", 500'000},
                   {"tick_us", 20'000},
                   {"reflectors", 2}});
  // Applied/cleared fault windows already mirrored into the log (the
  // injector itself stays log-free — no sim -> log dependency).
  std::vector<std::pair<bool, bool>> fault_logged(injector.timeline().size(),
                                                  {false, false});
  const core::MovrReflector* reflectors[2] = {&r0, &r1};
  const core::ReflectorConfigAgent* agents[2] = {&agent0, &agent1};
  // Each tick mirrors fault-window transitions, then the control snapshot
  // (partition flag first — the verifier's A clock), then one snapshot per
  // reflector. All pure reads.
  const auto snapshot = [&] {
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
    for (std::size_t i = 0; i < 2; ++i) {
      const auto& front_end = reflectors[i]->front_end();
      const bool stable =
          front_end.process(scene.reflector_input(*reflectors[i])).stable;
      recorder.record(
          log::EventKind::kSnapshotReflector,
          {{"r", static_cast<std::int64_t>(i)},
           {"gain", static_cast<std::int64_t>(front_end.gain_code())},
           {"safe_code",
            static_cast<std::int64_t>(agents[i]->safe_gain_code())},
           {"safe_mode", agents[i]->in_safe_mode() ? 1 : 0},
           {"stable", stable ? 1 : 0},
           {"div_age_us", plane.divergence_age(i, now).count() / 1000},
           {"plane_part", plane.partitioned(i) ? 1 : 0}});
    }
  };
  std::uint64_t ticks = 0;
  for (sim::TimePoint t{20ms}; t < end; t += 20ms) {
    simulator.at(t, snapshot);
    ++ticks;
  }

  // --- the session itself: frame transport on, fault accounting on ------
  vr::Session::Config session_config;
  session_config.duration = duration;
  session_config.faults = &injector;
  session_config.control_plane = &plane;
  session_config.recorder = &recorder;
  net::TransportConfig transport;
  transport.source.target_mbps = 400.0;
  session_config.transport = transport;
  vr::Session session{simulator, scene, strategy, nullptr, nullptr,
                      session_config};
  result.report = session.run();

  result.channel = control.stats();
  result.incidents = plane.incidents();

  // Seal the log: log_close carries the record count, then (with
  // --event-log) the whole buffer hits disk in one shot, byte-stable
  // across identical runs.
  recorder.close();

  // --- the verdict: invariants A-E replayed from the log's bytes --------
  const log::VerifyReport verdict =
      log::verify_log(log::parse_log(recorder.buffer()), "");
  result.violations = verdict.chain_issues;
  result.violations.insert(result.violations.end(),
                           verdict.invariant_issues.begin(),
                           verdict.invariant_issues.end());
  result.ticks_checked = verdict.control_snapshots;
  if (!verdict.has_params || verdict.control_snapshots < ticks ||
      verdict.reflector_snapshots < 2 * ticks ||
      verdict.searches < searches.size()) {
    result.thin = std::to_string(verdict.control_snapshots) + " control / " +
                  std::to_string(verdict.reflector_snapshots) +
                  " reflector snapshots over " + std::to_string(ticks) +
                  " ticks, " + std::to_string(verdict.searches) + " of " +
                  std::to_string(searches.size()) + " searches logged" +
                  (verdict.has_params ? "" : ", no params record");
  }

  // Fingerprint: a replayed seed must reproduce this hash exactly.
  using bench::fingerprint_mix;
  std::uint64_t h = sim::fnv1a("chaos_soak");
  h = fingerprint_mix(h, seed);
  h = fingerprint_mix(h, result.report.frames);
  h = fingerprint_mix(h, result.report.glitched_frames);
  h = fingerprint_mix(h, result.channel.sent);
  h = fingerprint_mix(h, result.channel.delivered);
  h = fingerprint_mix(h, result.channel.corrupted_dropped);
  h = fingerprint_mix(h, result.channel.corrupted_delivered);
  h = fingerprint_mix(h, result.channel.reordered);
  h = fingerprint_mix(h, result.channel.partition_losses);
  h = fingerprint_mix(h, result.incidents.partitions_entered);
  h = fingerprint_mix(h, result.incidents.divergences_detected);
  h = fingerprint_mix(h, result.incidents.reconciliations);
  h = fingerprint_mix(h, result.incidents.safe_mode_entries);
  h = fingerprint_mix(h, result.report.transport
                             ? result.report.transport->packets_delivered
                             : 0);
  h = fingerprint_mix(h, static_cast<std::uint64_t>(result.violations.size()));
  result.fingerprint = h;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::SweepFlags sweep{20, 60.0};
  bool disable_watchdog = false;
  bool expect_violation = false;
  std::string event_log_dir;
  bench::Cli cli{
      "chaos_soak — seeded control-plane chaos soak with per-tick "
      "invariants"};
  sweep.bind(cli)
      .flag("--disable-watchdog", disable_watchdog,
            "tripwire: silence watchdogs off, invariant A must fire")
      .flag("--expect-violation", expect_violation,
            "exit 0 only if an invariant violation WAS observed")
      .flag("--event-log", event_log_dir,
            "also write each seed's event log to DIR/seed<N>.log", "DIR");
  if (const auto status = cli.parse(argc, argv)) {
    return *status;
  }
  const std::vector<std::uint64_t> seed_list = sweep.seed_list();
  const double duration_s = sweep.duration_s;

  if (!event_log_dir.empty() && !bench::make_dir(event_log_dir)) {
    return 2;
  }

  bench::print_header("Chaos soak — control-plane invariants under fire");
  std::printf("%6s %8s %9s %6s %6s %6s %6s %6s %6s %5s %18s %5s\n", "seed",
              "frames", "glitch%", "part", "div", "recon", "safe", "corr",
              "reord", "srch", "fingerprint", "viol");

  std::uint64_t total_violations = 0;
  std::uint64_t thin_logs = 0;
  bench::Json rows = bench::Json::array();
  const auto wall_start = std::chrono::steady_clock::now();
  for (const std::uint64_t seed : seed_list) {
    const SeedResult r =
        run_seed(seed, duration_s, !disable_watchdog, event_log_dir);
    std::printf(
        "%6llu %8llu %8.2f%% %6llu %6llu %6llu %6llu %6llu %6llu %5zu "
        "%18s %5zu\n",
        static_cast<unsigned long long>(r.seed),
        static_cast<unsigned long long>(r.report.frames),
        100.0 * r.report.glitch_fraction(),
        static_cast<unsigned long long>(r.incidents.partitions_entered),
        static_cast<unsigned long long>(r.incidents.divergences_detected),
        static_cast<unsigned long long>(r.incidents.reconciliations),
        static_cast<unsigned long long>(r.incidents.safe_mode_entries),
        static_cast<unsigned long long>(r.channel.corrupted_dropped +
                                        r.channel.corrupted_delivered),
        static_cast<unsigned long long>(r.channel.reordered), r.searches,
        bench::fingerprint_hex(r.fingerprint).c_str(), r.violations.size());
    for (const log::Issue& v : r.violations) {
      std::printf("  VIOLATION seq=%lld t=%.3fs %s\n",
                  static_cast<long long>(v.seq),
                  static_cast<double>(v.t_us) / 1e6, v.what.c_str());
    }
    if (!r.thin.empty()) {
      std::printf("  THIN LOG: %s\n", r.thin.c_str());
      ++thin_logs;
    }
    if (!r.violations.empty() || !r.thin.empty()) {
      bench::print_replay("chaos_soak", r.seed, duration_s,
                          disable_watchdog ? " --disable-watchdog" : "");
    }
    total_violations += r.violations.size();
    bench::Json row = bench::Json::object();
    row.set("seed", r.seed)
        .set("frames", r.report.frames)
        .set("glitch_fraction", r.report.glitch_fraction())
        .set("partitions", r.incidents.partitions_entered)
        .set("divergences", r.incidents.divergences_detected)
        .set("reconciliations", r.incidents.reconciliations)
        .set("safe_mode_entries", r.incidents.safe_mode_entries)
        .set("searches", static_cast<std::uint64_t>(r.searches))
        .set("ticks_checked", r.ticks_checked)
        .set("fingerprint", bench::fingerprint_hex(r.fingerprint))
        .set("violations", static_cast<std::uint64_t>(r.violations.size()));
    rows.push(std::move(row));
  }
  const double wall_s = bench::seconds_since(wall_start);

  bench::Gates gates;
  gates.expect(thin_logs == 0,
               "%llu seed log(s) too thin to prove the invariants",
               static_cast<unsigned long long>(thin_logs));
  if (expect_violation) {
    gates.expect(total_violations > 0,
                 "expected at least one invariant violation, saw none — the "
                 "tripwire did not fire");
  } else {
    gates.expect(total_violations == 0,
                 "%llu invariant violations across %zu seeds",
                 static_cast<unsigned long long>(total_violations),
                 seed_list.size());
  }
  bench::Json summary = sweep.summary("chaos_soak", wall_s);
  summary.set("watchdog", !disable_watchdog)
      .set("event_log", !event_log_dir.empty())
      .set("total_violations", total_violations);
  gates.write(sweep.json, std::move(summary), "rows", std::move(rows));
  if (expect_violation) {
    return gates.finish("tripwire fired (%llu violations) as expected",
                        static_cast<unsigned long long>(total_violations));
  }
  return gates.finish("%zu seeds x %.0f s clean", seed_list.size(), duration_s);
}
