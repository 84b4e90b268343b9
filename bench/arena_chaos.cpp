// Arena-scale chaos: correlated infrastructure faults against the
// multi-user coordinator, with provable per-user isolation.
//
// Single-user chaos (bench/chaos_soak) answers "does one session survive a
// hostile control plane"; this bench answers the multi-user question the
// arena exists for: when SHARED infrastructure faults — a reflector that N
// users lease reboots or its amplifier sags, an AP browns out over every
// user it admitted — does the coordinator contain the damage to the users
// actually touching the faulted resource? Every (users, scenario, seed)
// cell runs TWICE from the same seed: once with the fault script, once
// fault-free, with identical 20 ms probes of every user's live
// deadline-miss trajectory. The fault run's lease failover, device
// quarantine and fault-aware admission are then judged by four gates:
//
//   ledgers    every user's per-20 ms packet-ledger audit closes at every
//              check (extended ledger, speculative buckets included)
//   liveness   every run's coordinator event log, recorded in memory,
//              passes log::verify_log — invariant F: no lease survives on
//              a quarantined reflector past the revocation grace — and
//              carries a lease snapshot per reflector per control tick
//   isolation  users sharing NO faulted resource (never arbitrated for a
//              faulted reflector in either run, not on a browned-out AP)
//              stay within an interference epsilon of their fault-free
//              glitch trajectory at every checkpoint
//   engaged    the machinery actually fired across the sweep (faults
//              applied, devices quarantined AND restored, at least one
//              holder displaced by failover, zero orphaned leases)
//
// With --event-log DIR one cell per scenario also records per-user
// streams and writes every stream to disk, each verified in-process
// (chain + invariants A-G); CI re-runs tools/log_verify on the same files.
// The --disable-failover tripwire inverts the contract: it runs one cell
// with failover OFF, expects the coordinator log to FAIL offline
// verification at a lease-liveness record, and exits nonzero if the
// verifier does NOT catch it.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <arena/coordinator.hpp>
#include <core/parallel_for.hpp>
#include <log/reader.hpp>
#include <log/verify.hpp>

#include "arena_world.hpp"
#include "harness.hpp"

namespace {

using namespace movr;

/// Isolation epsilon: a non-blast user's cumulative deadline misses may
/// exceed its fault-free trajectory by at most abs + frac * frames at any
/// checkpoint. The slack absorbs second-order coupling the arena cannot
/// remove (a displaced holder re-enters OTHER reflectors' wait queues,
/// and mode changes shift interference geometry) while still catching a
/// fault that actually leaks: a browned-out AP or lost reflector costs
/// hundreds of misses, two orders of magnitude past this bound.
constexpr double kIsolationAbs = 12.0;
constexpr double kIsolationFrac = 0.02;

constexpr auto kProbeInterval = std::chrono::milliseconds{20};

/// One named fault scenario plus the resources it faults (for blast-set
/// classification).
struct Scenario {
  const char* name;
  std::vector<arena::ArenaFault> faults;
  std::vector<std::size_t> faulted_reflectors;
  std::vector<std::size_t> faulted_aps;
};

sim::TimePoint at_s(double s) { return sim::TimePoint{sim::from_seconds(s)}; }

arena::ArenaFault reboot(std::size_t r, double start_s) {
  arena::ArenaFault f;
  f.kind = arena::ArenaFault::Kind::kReflectorReboot;
  f.resource = r;
  f.start = at_s(start_s);
  return f;
}

arena::ArenaFault sag(std::size_t r, double start_s, double dur_s,
                      double db) {
  arena::ArenaFault f;
  f.kind = arena::ArenaFault::Kind::kReflectorGainSag;
  f.resource = r;
  f.start = at_s(start_s);
  f.duration = sim::from_seconds(dur_s);
  f.magnitude_db = db;
  return f;
}

arena::ArenaFault brownout(std::size_t ap, double start_s, double dur_s,
                           double db) {
  arena::ArenaFault f;
  f.kind = arena::ArenaFault::Kind::kApBrownout;
  f.resource = ap;
  f.start = at_s(start_s);
  f.duration = sim::from_seconds(dur_s);
  f.magnitude_db = db;
  return f;
}

/// The fault grid. Timings sit on/around the shared diagonal crossing at
/// t=2.0 s, when reflector demand peaks — faults land while the faulted
/// device is actually leased.
std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  out.push_back({"reboot", {reboot(0, 2.5)}, {0}, {}});
  out.push_back(
      {"sag", {sag(0, 2.0, 2.5, 6.0), sag(1, 2.2, 2.5, 6.0)}, {0, 1}, {}});
  out.push_back({"brownout", {brownout(0, 2.0, 2.0, 9.0)}, {}, {0}});
  out.push_back(
      {"combo", {reboot(0, 2.0), brownout(1, 3.5, 1.5, 8.0)}, {0}, {1}});
  return out;
}

/// Per-user cumulative (misses, frames) sampled every 20 ms.
struct Trajectory {
  std::vector<std::uint64_t> misses;
  std::vector<std::uint64_t> frames;
};

/// One coordinator run (faulted or reference) with live probes attached
/// and its event log verified.
struct RunOutcome {
  std::vector<Trajectory> trajectories;       // one per user
  /// [user] shares a faulted reflector: fault-degraded at any probe, held
  /// a faulted reflector at/after fault start, first touched one after
  /// fault start, or bounced off a benched device. Deliberately NOT
  /// "touched at any point in the run" — that marks everyone over 6 s of
  /// contention and makes the isolation gate vacuous.
  std::vector<std::uint8_t> blast_signals;
  /// [user] sum of the user's OWN health-monitor counters (quarantines,
  /// reboot detections, divergences). A faulted-vs-reference mismatch
  /// means the user's link machinery reacted to the fault (e.g. an
  /// aborted handover into a rebooted reflector) even if every probe
  /// missed the short holder window — that user is in the blast.
  std::vector<std::uint64_t> health_marks;
  /// [user] sum of the user's admission counters (degrades, evictions,
  /// readmissions, fault spares). A faulted-vs-reference mismatch means
  /// the admission controller treated this user differently BECAUSE of
  /// the fault — e.g. the sparing rule shifting a demotion from the
  /// fault-degraded holder onto a healthy AP-mate. That transfer is the
  /// coordinator's deliberate blast radius, not an isolation leak.
  std::vector<std::uint64_t> admission_marks;
  /// Flattened [probe][reflector] -> holder index (kNoHolder when free).
  /// Diffed against the reference run to find lease-displacement
  /// cascades: a faulted reflector's displaced holder fast-tracks onto a
  /// healthy one, evicting ITS holder in turn — every user whose lease
  /// trajectory was reshuffled by the fault is inside the blast.
  std::vector<std::uint32_t> holder_map;
  std::size_t reflectors{0};
  std::vector<double> glitch_fractions;       // one per user
  std::uint64_t ledger_checks{0};
  std::uint64_t ledger_violations{0};
  /// log::verify_log's verdict on the run's coordinator stream; its
  /// invariant issues are lease-liveness (F) violations.
  log::VerifyReport coordinator_log;
  /// One message per stream that failed verification, or whose verdict
  /// is too thin to prove lease liveness.
  std::vector<std::string> log_failures;
  std::uint64_t logs_verified{0};  // streams that verified clean
  arena::Coordinator::ChaosStats chaos;
  std::uint64_t quarantine_denials{0};
  std::uint64_t fast_tracks{0};
  std::uint64_t stale_reservations{0};
  std::uint64_t fingerprint{0};
};

constexpr std::uint32_t kNoHolder = 0xffffffffu;

/// Verifies one recorded stream from its in-memory bytes; a stream that
/// does not verify adds a message naming its first bad records.
log::VerifyReport verify_stream(const log::Recorder& stream,
                                const std::string& name,
                                std::vector<std::string>& failures) {
  log::VerifyReport report =
      log::verify_log(log::parse_log(stream.buffer()), "");
  if (!report.ok()) {
    std::string message = name + " does not verify offline:";
    for (const log::Issue& issue : report.chain_issues.empty()
                                       ? report.invariant_issues
                                       : report.chain_issues) {
      message += "\n  seq " + std::to_string(issue.seq) + " t=" +
                 std::to_string(issue.t_us) + " us: " + issue.what;
    }
    failures.push_back(std::move(message));
  }
  return report;
}

/// Runs one arena (with or without the scenario's faults), samples every
/// user's live miss/frame counters every 20 ms, and verifies the
/// coordinator stream it records in memory. A non-empty `log_dir` also
/// records per-user streams and writes every stream to
/// log_dir/<stem>*.log.
RunOutcome run_arena(std::size_t users, const Scenario& scenario,
                     bool faulted, bool failover, std::uint64_t seed,
                     double duration_s, const std::string& log_dir = {},
                     const std::string& stem = {}) {
  const core::Scene prototype = bench::arena_scene();
  sim::Simulator simulator;
  auto config = bench::arena_config(users, seed, duration_s);
  if (faulted) {
    config.faults = scenario.faults;
    config.lease_failover = failover;
  }
  bench::LogSinks sinks =
      bench::make_sinks(log_dir, stem, "arena_chaos",
                        log_dir.empty() ? 0 : users, seed, simulator);
  sinks.attach(config);
  arena::Coordinator coordinator{simulator, prototype, config,
                                 bench::motion_factory(seed),
                                 bench::script_factory(duration_s)};

  RunOutcome out;
  out.trajectories.resize(users);
  out.blast_signals.assign(users, 0);
  out.reflectors = prototype.reflector_count();
  // Blast membership is decided per fault window, not per run: the flip
  // baseline is each user's touched-bitmap at the last probe before the
  // first fault lands (bit-identical between the faulted and reference
  // runs, since nothing has diverged yet).
  sim::TimePoint first_fault = sim::TimePoint::max();
  for (const arena::ArenaFault& fault : scenario.faults) {
    first_fault = std::min(first_fault, fault.start);
  }
  std::vector<std::uint8_t> pre_fault_touched(
      users * scenario.faulted_reflectors.size(), 0);
  const auto probe = [&] {
    const sim::TimePoint now = simulator.now();
    for (std::size_t u = 0; u < users; ++u) {
      const net::Transport* transport = coordinator.user_transport(u);
      out.trajectories[u].misses.push_back(
          transport != nullptr ? transport->live_deadline_misses() : 0);
      out.trajectories[u].frames.push_back(
          transport != nullptr ? transport->live_frames_emitted() : 0);
    }
    for (std::size_t r = 0; r < out.reflectors; ++r) {
      const auto holder = coordinator.arbiter().holder(r);
      out.holder_map.push_back(
          holder ? static_cast<std::uint32_t>(*holder) : kNoHolder);
    }
    if (now < first_fault) {
      // Keep refreshing the pre-fault baseline until the fault lands.
      for (std::size_t i = 0; i < scenario.faulted_reflectors.size(); ++i) {
        const std::size_t r = scenario.faulted_reflectors[i];
        for (std::size_t u = 0; u < users; ++u) {
          pre_fault_touched[u * scenario.faulted_reflectors.size() + i] =
              coordinator.arbiter().touched(u, r) ? 1 : 0;
        }
      }
    } else {
      // Holding a faulted reflector at/after fault start = in the blast,
      // as is carrying the coordinator's fault-degraded mark (displaced
      // holders, browned-out-AP users, sag-window holders).
      for (const std::size_t r : scenario.faulted_reflectors) {
        if (const auto holder = coordinator.arbiter().holder(r)) {
          out.blast_signals[*holder] = 1;
        }
      }
      if (faulted) {
        for (std::size_t u = 0; u < users; ++u) {
          if (coordinator.fault_degraded(u, now)) {
            out.blast_signals[u] = 1;
          }
        }
      }
    }
  };
  const sim::TimePoint end{sim::from_seconds(duration_s)};
  for (sim::TimePoint t{kProbeInterval}; t < end; t += kProbeInterval) {
    simulator.at(t, probe);
  }

  const auto results = coordinator.run();
  for (std::size_t u = 0; u < users; ++u) {
    // First touch of a faulted reflector after fault start, or a bounce
    // off the benched device, completes the blast signals.
    for (std::size_t i = 0; i < scenario.faulted_reflectors.size(); ++i) {
      const std::size_t r = scenario.faulted_reflectors[i];
      if (coordinator.arbiter().touched(u, r) &&
          pre_fault_touched[u * scenario.faulted_reflectors.size() + i] ==
              0) {
        out.blast_signals[u] = 1;
      }
    }
    if (faulted &&
        coordinator.arbiter().user_stats(u).quarantine_denials > 0) {
      out.blast_signals[u] = 1;
    }
    const core::HealthMonitor::Stats& own =
        coordinator.user_manager(u).health().stats();
    out.health_marks.push_back(static_cast<std::uint64_t>(
        own.quarantines + own.reboots_detected + own.divergences));
    const arena::AdmissionController::UserCounters& adm =
        coordinator.admission().counters(u);
    out.admission_marks.push_back(static_cast<std::uint64_t>(
        adm.degrades + adm.evictions + adm.readmissions + adm.fault_spares));
    out.glitch_fractions.push_back(results[u].report.glitch_fraction());
    if (results[u].report.arena.has_value()) {
      out.ledger_checks += results[u].report.arena->ledger_checks;
      out.ledger_violations += results[u].report.arena->ledger_violations;
    }
    out.fingerprint = bench::fingerprint_mix(
        out.fingerprint, arena::qoe_fingerprint(results[u].report));
  }
  out.chaos = coordinator.chaos();
  out.quarantine_denials = coordinator.arbiter().stats().quarantine_denials;
  out.fast_tracks = coordinator.arbiter().stats().fast_tracks;
  out.stale_reservations = coordinator.arbiter().stats().stale_reservations;

  sinks.close();
  const std::string run_name = " log (" + std::to_string(users) + " users, " +
                               scenario.name + ", seed " +
                               std::to_string(seed) +
                               (faulted ? ", faulted)" : ", fault-free)");
  out.coordinator_log = verify_stream(
      *sinks.coordinator, "coordinator" + run_name, out.log_failures);
  // A clean verdict proves lease liveness only over a log that carries its
  // bounds and a lease snapshot per reflector per control tick.
  const auto ticks =
      static_cast<std::uint64_t>(config.session.duration /
                                 arena::Coordinator::kControlInterval);
  const std::uint64_t want = out.reflectors * ticks;
  if (!out.coordinator_log.has_params ||
      out.coordinator_log.lease_snapshots < want) {
    out.log_failures.push_back(
        "coordinator" + run_name + " is too thin to prove lease " +
        "liveness (params " +
        (out.coordinator_log.has_params ? "present" : "missing") + ", " +
        std::to_string(out.coordinator_log.lease_snapshots) + " of " +
        std::to_string(want) + " lease snapshots)");
  } else if (out.coordinator_log.ok()) {
    ++out.logs_verified;
  }
  for (std::size_t u = 0; u < sinks.users.size(); ++u) {
    const std::string name = "user" + std::to_string(u) + run_name;
    if (verify_stream(*sinks.users[u], name, out.log_failures).ok()) {
      ++out.logs_verified;
    }
  }
  return out;
}

/// One (users, scenario, seed) cell: faulted run vs same-seed reference.
struct CellResult {
  RunOutcome faulted;
  RunOutcome reference;
  std::size_t blast_users{0};
  double max_excess{0.0};          // worst non-blast miss excess seen
  double max_allowance{0.0};       // the bound at that checkpoint
  std::uint64_t isolation_violations{0};
  std::string first_violation;
};

CellResult run_cell(std::size_t users, const Scenario& scenario,
                    std::uint64_t seed, double duration_s) {
  // Sweep cells keep their logs in memory; the event-log pass (one cell
  // per scenario written to disk) is driven separately from main().
  CellResult cell;
  cell.faulted = run_arena(users, scenario, /*faulted=*/true,
                           /*failover=*/true, seed, duration_s);
  cell.reference = run_arena(users, scenario, /*faulted=*/false,
                             /*failover=*/true, seed, duration_s);

  // Blast set: shared a faulted reflector during its fault window in
  // EITHER run (held it, first touched it after the fault landed, bounced
  // off it, or carried the fault-degraded mark), or attached to a
  // browned-out AP.
  std::vector<std::uint8_t> blast(users, 0);
  for (std::size_t u = 0; u < users; ++u) {
    if (cell.faulted.blast_signals[u] != 0 ||
        cell.reference.blast_signals[u] != 0) {
      blast[u] = 1;
    }
    // The user's own health machinery diverged from the fault-free run:
    // it reacted to the fault (aborted into a rebooted device, struck out
    // on a sagging one) even if every 20 ms probe missed the window.
    if (cell.faulted.health_marks[u] != cell.reference.health_marks[u]) {
      blast[u] = 1;
    }
    // Admission treated the user differently because of the fault: the
    // sparing rule deliberately shifts demotions onto healthy AP-mates
    // of a fault-degraded user. Deliberate transfer = inside the blast.
    if (cell.faulted.admission_marks[u] != cell.reference.admission_marks[u]) {
      blast[u] = 1;
    }
  }
  // Lease-displacement cascade: any checkpoint where a reflector's holder
  // differs from the fault-free run implicates BOTH holders — the user
  // pushed off its lease schedule and the one pushed onto it. (Pre-fault
  // checkpoints are bit-identical, so they contribute nothing.)
  const std::size_t map_len = std::min(cell.faulted.holder_map.size(),
                                       cell.reference.holder_map.size());
  for (std::size_t i = 0; i < map_len; ++i) {
    const std::uint32_t a = cell.faulted.holder_map[i];
    const std::uint32_t b = cell.reference.holder_map[i];
    if (a == b) {
      continue;
    }
    if (a != kNoHolder && a < users) {
      blast[a] = 1;
    }
    if (b != kNoHolder && b < users) {
      blast[b] = 1;
    }
  }
  for (std::size_t u = 0; u < users; ++u) {
    for (const std::size_t ap : scenario.faulted_aps) {
      if (u % 4 == ap) {
        blast[u] = 1;
      }
    }
    cell.blast_users += blast[u];
  }

  // Isolation: non-blast users track their fault-free trajectory.
  for (std::size_t u = 0; u < users; ++u) {
    if (blast[u] != 0) {
      continue;
    }
    const Trajectory& with = cell.faulted.trajectories[u];
    const Trajectory& without = cell.reference.trajectories[u];
    const std::size_t checkpoints =
        std::min(with.misses.size(), without.misses.size());
    for (std::size_t k = 0; k < checkpoints; ++k) {
      const double excess = static_cast<double>(with.misses[k]) -
                            static_cast<double>(without.misses[k]);
      const double allowance =
          kIsolationAbs +
          kIsolationFrac * static_cast<double>(without.frames[k]);
      if (excess > cell.max_excess) {
        cell.max_excess = excess;
        cell.max_allowance = allowance;
      }
      if (excess > allowance) {
        ++cell.isolation_violations;
        if (cell.first_violation.empty()) {
          char buf[160];
          std::snprintf(buf, sizeof buf,
                        "user %zu at t=%.2f s: %+.0f misses vs fault-free "
                        "(allowance %.1f)",
                        u, 0.02 * static_cast<double>(k + 1), excess,
                        allowance);
          cell.first_violation = buf;
        }
      }
    }
  }
  return cell;
}

/// The --disable-failover tripwire: run one cell with lease failover OFF
/// and a long, mild all-reflector gain sag (links stay usable, so holders
/// keep riding their quarantined devices), then demand that the offline
/// verifier catches the lease-liveness breach from the bytes alone.
int run_tripwire(std::size_t users, std::uint64_t seed, double duration_s,
                 std::string dir) {
  if (dir.empty()) {
    dir = "arena_chaos_tripwire";
  }
  if (!bench::make_dir(dir)) {
    return 2;
  }
  Scenario scenario;
  scenario.name = "tripwire_sag_all";
  for (std::size_t r = 0; r < 4; ++r) {
    scenario.faults.push_back(sag(r, 1.5, duration_s - 2.0, 2.0));
    scenario.faulted_reflectors.push_back(r);
  }

  const RunOutcome run = run_arena(users, scenario, /*faulted=*/true,
                                   /*failover=*/false, seed, duration_s, dir,
                                   "tripwire.");
  const log::VerifyReport& report = run.coordinator_log;
  if (!report.chain_issues.empty()) {
    std::printf("FAIL: tripwire log has chain issues (expected a clean "
                "chain with an invariant F violation):\n  %s\n",
                report.chain_issues.front().what.c_str());
    return 1;
  }
  if (report.invariant_issues.empty()) {
    std::printf("FAIL: verifier did NOT catch the disabled failover — "
                "%llu lease snapshots re-checked, zero violations\n",
                static_cast<unsigned long long>(report.lease_snapshots));
    return 1;
  }
  const log::Issue& first = report.invariant_issues.front();
  if (first.what.find("invariant F") == std::string::npos) {
    std::printf("FAIL: first invariant issue is not lease liveness: %s\n",
                first.what.c_str());
    return 1;
  }
  std::printf("OK: tripwire caught — verification of the coordinator log "
              "in %s fails at seq %lld (t=%lld us):\n  %s\n",
              dir.c_str(), static_cast<long long>(first.seq),
              static_cast<long long>(first.t_us), first.what.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::SweepFlags sweep{2, 6.0};
  std::vector<std::size_t> user_counts = {4, 8};
  unsigned threads = 0;
  std::string event_log_dir;
  bool disable_failover = false;
  bench::Cli cli{
      "arena_chaos — correlated shared-resource faults against the\n"
      "multi-user arena: lease failover, fault-aware admission, and a\n"
      "blast-radius isolation gate checked every 20 ms"};
  sweep.bind(cli)
      .flag("--users", user_counts, "comma-separated user counts")
      .flag("--threads", threads, "worker threads, 0 = one per hardware thread")
      .flag("--event-log", event_log_dir,
            "write and verify each scenario's event logs in DIR", "DIR")
      .flag("--disable-failover", disable_failover,
            "tripwire: exit 0 only if offline verification catches it");
  if (const auto status = cli.parse(argc, argv)) {
    return *status;
  }
  const double duration_s = sweep.duration_s;

  if (disable_failover) {
    return run_tripwire(user_counts.back(), sweep.seed.value_or(1),
                        duration_s, event_log_dir);
  }

  const std::vector<std::uint64_t> seed_list = sweep.seed_list();
  const std::vector<Scenario> grid = scenarios();

  struct SweepJob {
    std::size_t users;
    std::size_t scenario;
    std::uint64_t seed;
  };
  std::vector<SweepJob> jobs;
  for (const std::size_t users : user_counts) {
    for (std::size_t s = 0; s < grid.size(); ++s) {
      for (const std::uint64_t seed : seed_list) {
        jobs.push_back({users, s, seed});
      }
    }
  }
  std::vector<CellResult> results(jobs.size());

  const auto wall_start = std::chrono::steady_clock::now();
  core::parallel_for(jobs.size(), threads,
                     [&](std::size_t begin, std::size_t end) {
                       for (std::size_t j = begin; j < end; ++j) {
                         results[j] = run_cell(jobs[j].users,
                                               grid[jobs[j].scenario],
                                               jobs[j].seed, duration_s);
                       }
                     });
  const double wall_s = bench::seconds_since(wall_start);

  bench::Gates gates;

  bench::print_header(
      "Arena chaos — correlated shared-resource faults, failover + "
      "isolation");
  std::printf("%5s %-10s %5s %7s %7s %7s %7s %7s %9s %10s\n", "users",
              "scenario", "seed", "faults", "quarant", "failovr", "restore",
              "blast", "maxExcess", "liveness");
  arena::Coordinator::ChaosStats totals;
  std::uint64_t total_fast_tracks = 0;
  std::uint64_t total_quarantine_denials = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const SweepJob& job = jobs[j];
    const CellResult& cell = results[j];
    const auto& chaos = cell.faulted.chaos;
    totals.faults_applied += chaos.faults_applied;
    totals.failover_revocations += chaos.failover_revocations;
    totals.orphan_leases_reaped += chaos.orphan_leases_reaped;
    totals.device_quarantines += chaos.device_quarantines;
    totals.device_restores += chaos.device_restores;
    totals.fault_degraded_samples += chaos.fault_degraded_samples;
    total_fast_tracks += cell.faulted.fast_tracks;
    total_quarantine_denials += cell.faulted.quarantine_denials;
    std::printf("%5zu %-10s %5llu %7llu %7llu %7llu %7llu %7zu %9.1f %10llu\n",
                job.users, grid[job.scenario].name,
                static_cast<unsigned long long>(job.seed),
                static_cast<unsigned long long>(chaos.faults_applied),
                static_cast<unsigned long long>(chaos.device_quarantines),
                static_cast<unsigned long long>(chaos.failover_revocations),
                static_cast<unsigned long long>(chaos.device_restores),
                cell.blast_users, cell.max_excess,
                static_cast<unsigned long long>(
                    cell.faulted.coordinator_log.invariant_issues.size()));
  }

  // Gate 1: every user's extended packet ledger closes at every 20 ms
  // check, in both the faulted and the reference runs. Gate 2: lease
  // liveness — both runs' coordinator logs verify (invariant F: no
  // quarantined reflector keeps its holder past the revocation grace) and
  // are thick enough to prove it.
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const int before = gates.failures();
    for (const RunOutcome* run : {&results[j].faulted, &results[j].reference}) {
      gates.expect(run->ledger_violations == 0 && run->ledger_checks > 0,
                   "ledger audit open (%zu users, %s, seed %llu)",
                   jobs[j].users, grid[jobs[j].scenario].name,
                   static_cast<unsigned long long>(jobs[j].seed));
      for (const std::string& failure : run->log_failures) {
        gates.expect(false, "%s", failure.c_str());
      }
    }
    if (gates.failures() > before) {
      bench::print_replay("arena_chaos", jobs[j].seed, duration_s, "");
    }
  }

  // Gate 3: blast-radius isolation — and the gate must actually bind:
  // at least one cell has to leave some users outside the blast, or the
  // trajectory comparison proved nothing.
  std::size_t isolated_user_cells = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    isolated_user_cells += jobs[j].users - results[j].blast_users;
  }
  gates.expect(isolated_user_cells > 0,
               "isolation gate vacuous: every user in every cell was "
               "classified blast");
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (!gates.expect(
            results[j].isolation_violations == 0,
            "isolation: %llu checkpoint(s) outside epsilon (%zu users, %s, "
            "seed %llu): %s",
            static_cast<unsigned long long>(results[j].isolation_violations),
            jobs[j].users, grid[jobs[j].scenario].name,
            static_cast<unsigned long long>(jobs[j].seed),
            results[j].first_violation.c_str())) {
      bench::print_replay("arena_chaos", jobs[j].seed, duration_s, "");
    }
  }

  // Gate 4: the machinery engaged (otherwise every other gate is vacuous)
  // and nothing leaked: zero orphaned leases across the sweep.
  gates.expect(totals.faults_applied > 0 && totals.device_quarantines > 0 &&
                   totals.failover_revocations > 0 &&
                   totals.device_restores > 0,
               "chaos machinery never engaged (faults %llu, quarantines "
               "%llu, failovers %llu, restores %llu)",
               static_cast<unsigned long long>(totals.faults_applied),
               static_cast<unsigned long long>(totals.device_quarantines),
               static_cast<unsigned long long>(totals.failover_revocations),
               static_cast<unsigned long long>(totals.device_restores));
  gates.expect(totals.orphan_leases_reaped == 0,
               "%llu orphaned lease(s) reaped — arbiter and managers desynced",
               static_cast<unsigned long long>(totals.orphan_leases_reaped));

  // Event-log pass: one cell per scenario (largest user count, first
  // seed) with every stream written to disk and verified in-process.
  std::uint64_t logs_verified = 0;
  if (!event_log_dir.empty()) {
    if (!bench::make_dir(event_log_dir)) {
      return 2;
    }
    const std::size_t users = user_counts.back();
    const std::uint64_t seed = seed_list.front();
    for (const Scenario& scenario : grid) {
      const std::string stem = std::string{scenario.name} + "_u" +
                               std::to_string(users) + "_s" +
                               std::to_string(seed) + ".";
      const RunOutcome run =
          run_arena(users, scenario, /*faulted=*/true, /*failover=*/true,
                    seed, duration_s, event_log_dir, stem);
      for (const std::string& failure : run.log_failures) {
        gates.expect(false, "%s", failure.c_str());
      }
      logs_verified += run.logs_verified;
    }
    std::printf("\nevent logs: %llu stream(s) verified offline in %s\n",
                static_cast<unsigned long long>(logs_verified),
                event_log_dir.c_str());
  }

  bench::Json rows = bench::Json::array();
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const CellResult& cell = results[j];
    bench::Json row = bench::Json::object();
    row.set("users", static_cast<std::uint64_t>(jobs[j].users))
        .set("scenario", grid[jobs[j].scenario].name)
        .set("seed", jobs[j].seed)
        .set("faults_applied", cell.faulted.chaos.faults_applied)
        .set("device_quarantines", cell.faulted.chaos.device_quarantines)
        .set("device_restores", cell.faulted.chaos.device_restores)
        .set("failover_revocations", cell.faulted.chaos.failover_revocations)
        .set("orphan_leases_reaped", cell.faulted.chaos.orphan_leases_reaped)
        .set("fault_degraded_samples",
             cell.faulted.chaos.fault_degraded_samples)
        .set("fast_tracks", cell.faulted.fast_tracks)
        .set("quarantine_denials", cell.faulted.quarantine_denials)
        .set("stale_reservations", cell.faulted.stale_reservations)
        .set("blast_users", static_cast<std::uint64_t>(cell.blast_users))
        .set("max_isolation_excess", cell.max_excess)
        .set("isolation_violations", cell.isolation_violations)
        .set("lease_liveness_violations",
             static_cast<std::uint64_t>(
                 cell.faulted.coordinator_log.invariant_issues.size()))
        .set("ledger_checks", cell.faulted.ledger_checks)
        .set("ledger_violations", cell.faulted.ledger_violations)
        .set("fingerprint", bench::fingerprint_hex(cell.faulted.fingerprint))
        .set("reference_fingerprint",
             bench::fingerprint_hex(cell.reference.fingerprint));
    rows.push(std::move(row));
  }
  bench::Json summary = sweep.summary("arena_chaos", wall_s);
  summary.set("isolation_abs", kIsolationAbs)
      .set("isolation_frac", kIsolationFrac)
      .set("total_failover_revocations", totals.failover_revocations)
      .set("total_fast_tracks", total_fast_tracks)
      .set("total_quarantine_denials", total_quarantine_denials)
      .set("logs_verified", logs_verified);
  gates.write(sweep.json, std::move(summary), "sweep", std::move(rows));

  double max_excess = 0.0;
  for (const CellResult& cell : results) {
    max_excess = std::max(max_excess, cell.max_excess);
  }
  return gates.finish(
      "%zu user counts x %zu scenarios x %zu seeds — ledgers closed, leases "
      "live, isolation held (max excess %.1f misses), %llu failovers / %llu "
      "fast-tracks / %llu quarantine denials (%.1f s wall)",
      user_counts.size(), grid.size(), seed_list.size(), max_excess,
      static_cast<unsigned long long>(totals.failover_revocations),
      static_cast<unsigned long long>(total_fast_tracks),
      static_cast<unsigned long long>(total_quarantine_denials), wall_s);
}
