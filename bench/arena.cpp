// Multi-user arena: shared-spectrum coordination under reflector scarcity.
//
// The acceptance harness for src/arena/ (DESIGN.md §12). Each seed builds
// one shared world (bench/arena_world.hpp): an 8x8 m room with four
// corner APs and four wall-mounted reflectors; N users attach round-robin
// to the APs, wander their own quadrant, raise hands on staggered periods,
// and share two diagonal person-crossings that black out several users'
// direct paths at once — the reflector demand spike the arbitration exists
// for. The world is a pure function of (seed, user index); the two arms
// differ only in the arbiter policy:
//
//   arbitration  priority aging: leases expire, waiters age, aged waiters
//                revoke expired leases (starvation-free time sharing)
//   fcfs         first committer keeps the reflector until it releases
//
// Sweeps 2 -> 32 users, every (users, arm, seed) configuration an
// independent job run clone-per-worker via core::parallel_for — results
// are bit-deterministic regardless of thread count.
//
// Gates (aggregated across seeds):
//   - at 16 users, arbitration beats FCFS on the p95 per-user glitched
//     frame fraction (the unlucky-user tail is what arbitration buys)
//   - a 1-user arena is bit-identical to the standalone vr::Session built
//     from the same seed (arena::qoe_fingerprint equality)
//   - every user's per-20 ms packet-ledger audit passes at every check,
//     at every user count, in both arms
//   - the contention machinery actually engaged at 16+ users (denials and
//     revocations nonzero under arbitration — otherwise the comparison
//     is vacuous)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <arena/coordinator.hpp>
#include <core/parallel_for.hpp>

#include "arena_world.hpp"
#include "harness.hpp"

namespace {

using namespace movr;
using bench::arena_scene;
using bench::motion_factory;
using bench::script_factory;

enum class Arm { kArbitration, kFcfs };
constexpr const char* kArmNames[] = {"arbitration", "fcfs"};
constexpr int kArms = 2;

/// The shared arena world under the given arm's arbiter policy.
arena::Coordinator::Config make_config(std::size_t users, Arm arm,
                                       std::uint64_t seed,
                                       double duration_s) {
  auto config = bench::arena_config(users, seed, duration_s);
  if (arm == Arm::kFcfs) {
    config.arbiter.policy = arena::ReflectorArbiter::Policy::kFcfs;
  }
  return config;
}

/// Aggregates of one (users, arm, seed) coordinator run.
struct JobResult {
  std::vector<double> glitch_fractions;  // one per user
  std::uint64_t frames{0};
  std::uint64_t glitched{0};
  std::uint64_t denials{0};
  std::uint64_t grants{0};
  std::uint64_t revocations{0};
  std::uint64_t degrades{0};
  std::uint64_t evictions{0};
  std::uint64_t readmissions{0};
  std::uint64_t interfered_frames{0};
  double max_interference_db{0.0};
  double min_airtime_share{1.0};
  std::uint64_t ledger_checks{0};
  std::uint64_t ledger_violations{0};
};

JobResult run_job(std::size_t users, Arm arm, std::uint64_t seed,
                  double duration_s) {
  const core::Scene prototype = arena_scene();
  sim::Simulator simulator;
  arena::Coordinator coordinator{simulator, prototype,
                                 make_config(users, arm, seed, duration_s),
                                 motion_factory(seed),
                                 script_factory(duration_s)};
  const auto results = coordinator.run();

  JobResult out;
  for (const auto& r : results) {
    out.glitch_fractions.push_back(r.report.glitch_fraction());
    out.frames += r.report.frames;
    out.glitched += r.report.glitched_frames;
    if (r.report.arena.has_value()) {
      const vr::ArenaLinkStats& a = *r.report.arena;
      out.denials += static_cast<std::uint64_t>(a.reflector_denials);
      out.grants += static_cast<std::uint64_t>(a.lease_grants);
      out.revocations += static_cast<std::uint64_t>(a.lease_revocations);
      out.degrades += static_cast<std::uint64_t>(a.admission_degrades);
      out.evictions += static_cast<std::uint64_t>(a.admission_evictions);
      out.readmissions += static_cast<std::uint64_t>(a.admission_readmissions);
      out.interfered_frames += a.interfered_frames;
      out.max_interference_db =
          std::max(out.max_interference_db, a.max_interference_db);
      out.min_airtime_share =
          std::min(out.min_airtime_share, a.min_airtime_share);
      out.ledger_checks += a.ledger_checks;
      out.ledger_violations += a.ledger_violations;
    }
  }
  return out;
}

/// The determinism-contract check: a 1-user arena run and the standalone
/// session standalone_run() builds from the same seed must fingerprint
/// identically (hooks degenerate to exact no-ops; see DESIGN.md §12.4).
struct IdentityResult {
  std::uint64_t arena_fp{0};
  std::uint64_t solo_fp{0};
  std::uint64_t ledger_violations{0};
};

IdentityResult run_identity(std::uint64_t seed, double duration_s) {
  const core::Scene prototype = arena_scene();
  const auto config = make_config(1, Arm::kArbitration, seed, duration_s);
  const auto motion = motion_factory(seed);
  const auto script = script_factory(duration_s);

  IdentityResult out;
  sim::Simulator simulator;
  arena::Coordinator coordinator{simulator, prototype, config, motion,
                                 script};
  const auto results = coordinator.run();
  out.arena_fp = arena::qoe_fingerprint(results[0].report);
  if (results[0].report.arena.has_value()) {
    out.ledger_violations = results[0].report.arena->ledger_violations;
  }
  const vr::QoeReport solo = arena::Coordinator::standalone_run(
      prototype, config, motion, script, 0);
  out.solo_fp = arena::qoe_fingerprint(solo);
  return out;
}

/// Single-cell event-log mode: one arbitration run with every user's
/// session + link manager recording into `dir`/user<N>.log and the
/// coordinator's lease-revocation / admission-transition interleave into
/// `dir`/coordinator.log. The per-user streams carry no params record, so
/// log_verify applies the chain + ledger-closure checks to them.
int run_event_log(std::size_t users, std::uint64_t seed, double duration_s,
                  const std::string& dir) {
  if (!bench::make_dir(dir)) {
    return 2;
  }
  const core::Scene prototype = arena_scene();
  sim::Simulator simulator;
  auto config = make_config(users, Arm::kArbitration, seed, duration_s);
  bench::LogSinks sinks =
      bench::make_sinks(dir, "", "arena", users, seed, simulator);
  sinks.attach(config);
  arena::Coordinator coordinator{simulator, prototype, config,
                                 motion_factory(seed),
                                 script_factory(duration_s)};
  const auto results = coordinator.run();
  sinks.close();
  std::printf("event logs: %s/coordinator.log (%llu records) + %zu user "
              "streams\n",
              dir.c_str(),
              static_cast<unsigned long long>(sinks.coordinator->records()),
              sinks.users.size());
  for (std::size_t u = 0; u < results.size(); ++u) {
    std::printf("  user%zu: %6.2f%% glitched, %llu records, fingerprint "
                "%s\n",
                u, 100.0 * results[u].report.glitch_fraction(),
                static_cast<unsigned long long>(sinks.users[u]->records()),
                bench::fingerprint_hex(
                    arena::qoe_fingerprint(results[u].report))
                    .c_str());
  }
  return 0;
}

/// Per-user diagnostic table for one (users, arm, seed) cell: where the
/// tail user's glitches actually come from (starved handovers, failed
/// commits, degraded dwell, interference).
void dump_users(std::size_t users, Arm arm, std::uint64_t seed,
                double duration_s) {
  const core::Scene prototype = arena_scene();
  sim::Simulator simulator;
  arena::Coordinator coordinator{simulator, prototype,
                                 make_config(users, arm, seed, duration_s),
                                 motion_factory(seed),
                                 script_factory(duration_s)};
  const auto results = coordinator.run();
  std::printf("\n%zu users, %s, seed %llu\n", users,
              kArmNames[static_cast<std::size_t>(arm)],
              static_cast<unsigned long long>(seed));
  std::printf(
      "%4s %7s %6s %6s %6s %6s %6s %6s %6s %8s %8s %8s\n", "user", "glitch",
      "grant", "deny", "revkd", "h.ref", "h.dir", "fail", "degr", "t.ref s",
      "maxI dB", "minShare");
  for (std::size_t u = 0; u < results.size(); ++u) {
    const auto& r = results[u];
    const auto& ls = r.link_stats;
    const vr::ArenaLinkStats* a =
        r.report.arena.has_value() ? &*r.report.arena : nullptr;
    std::printf(
        "%4zu %6.2f%% %6d %6d %6d %6d %6d %6d %6d %8.2f %8.2f %8.3f\n", u,
        100.0 * r.report.glitch_fraction(), a ? a->lease_grants : 0,
        ls.denied_handovers, a ? a->lease_revocations : 0,
        ls.handovers_to_reflector, ls.handovers_to_direct,
        ls.failed_handovers, ls.degraded_entries,
        sim::to_seconds(ls.time_on_reflector),
        a ? a->max_interference_db : 0.0, a ? a->min_airtime_share : 1.0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::SweepFlags sweep{3, 10.0};
  std::vector<std::size_t> user_counts = {2, 4, 8, 16, 32};
  unsigned threads = 0;
  std::string event_log_dir;
  bool dump = false;
  bench::Cli cli{
      "arena — multi-user shared-spectrum coordination: reflector lease\n"
      "arbitration vs FCFS across 2..32 users in one room"};
  sweep.bind(cli)
      .flag("--users", user_counts, "comma-separated user counts")
      .flag("--threads", threads, "worker threads, 0 = one per hardware thread")
      .flag("--event-log", event_log_dir,
            "write one arbitration cell's event logs to DIR, then exit", "DIR")
      .flag("--dump-users", dump,
            "print the 16-user cell per user, both arms, then exit");
  if (const auto status = cli.parse(argc, argv)) {
    return *status;
  }
  const std::vector<std::uint64_t> seed_list = sweep.seed_list();
  const double duration_s = sweep.duration_s;

  if (dump) {
    // Diagnostic: per-user breakdown of the 16-user cell at --seed
    // (default 1), one table per arm.
    const std::uint64_t s = sweep.seed.value_or(1);
    dump_users(16, Arm::kArbitration, s, duration_s);
    dump_users(16, Arm::kFcfs, s, duration_s);
    return 0;
  }
  if (!event_log_dir.empty()) {
    return run_event_log(user_counts.front(), seed_list.front(), duration_s,
                         event_log_dir);
  }

  // Every (users, arm, seed) sweep job plus one identity job per seed, all
  // independent — clone-per-worker via parallel_for; results land in
  // preallocated slots, bit-identical for any thread count.
  struct SweepJob {
    std::size_t users;
    Arm arm;
    std::uint64_t seed;
  };
  std::vector<SweepJob> sweep_jobs;
  for (const std::size_t users : user_counts) {
    for (int a = 0; a < kArms; ++a) {
      for (const std::uint64_t seed : seed_list) {
        sweep_jobs.push_back({users, static_cast<Arm>(a), seed});
      }
    }
  }
  std::vector<JobResult> sweep_results(sweep_jobs.size());
  std::vector<IdentityResult> identity_results(seed_list.size());

  const auto wall_start = std::chrono::steady_clock::now();
  const std::size_t total_jobs = sweep_jobs.size() + seed_list.size();
  core::parallel_for(total_jobs, threads,
                     [&](std::size_t begin, std::size_t end) {
                       for (std::size_t j = begin; j < end; ++j) {
                         if (j < sweep_jobs.size()) {
                           const SweepJob& job = sweep_jobs[j];
                           sweep_results[j] = run_job(job.users, job.arm,
                                                      job.seed, duration_s);
                         } else {
                           const std::size_t s = j - sweep_jobs.size();
                           identity_results[s] =
                               run_identity(seed_list[s], duration_s);
                         }
                       }
                     });
  const double wall_s = bench::seconds_since(wall_start);

  bench::Gates gates;

  // Pool per-user glitch fractions per (users, arm) across seeds.
  struct CellAggregate {
    std::vector<double> glitch_fractions;
    JobResult sums;  // counters summed across seeds
  };
  std::vector<CellAggregate> cells(user_counts.size() * kArms);
  for (std::size_t j = 0; j < sweep_jobs.size(); ++j) {
    const SweepJob& job = sweep_jobs[j];
    const std::size_t u_idx =
        static_cast<std::size_t>(std::find(user_counts.begin(),
                                           user_counts.end(), job.users) -
                                 user_counts.begin());
    CellAggregate& cell =
        cells[u_idx * kArms + static_cast<std::size_t>(job.arm)];
    const JobResult& r = sweep_results[j];
    cell.glitch_fractions.insert(cell.glitch_fractions.end(),
                                 r.glitch_fractions.begin(),
                                 r.glitch_fractions.end());
    cell.sums.frames += r.frames;
    cell.sums.glitched += r.glitched;
    cell.sums.denials += r.denials;
    cell.sums.grants += r.grants;
    cell.sums.revocations += r.revocations;
    cell.sums.degrades += r.degrades;
    cell.sums.evictions += r.evictions;
    cell.sums.readmissions += r.readmissions;
    cell.sums.interfered_frames += r.interfered_frames;
    cell.sums.max_interference_db =
        std::max(cell.sums.max_interference_db, r.max_interference_db);
    cell.sums.min_airtime_share =
        std::min(cell.sums.min_airtime_share, r.min_airtime_share);
    cell.sums.ledger_checks += r.ledger_checks;
    cell.sums.ledger_violations += r.ledger_violations;
  }

  bench::print_header(
      "Arena — reflector arbitration vs FCFS, 2..32 users sharing a room");
  std::printf("%5s %-12s %9s %9s %8s %8s %8s %8s %8s %8s %9s\n", "users",
              "arm", "p95glitch", "glitched", "denied", "grants", "revoked",
              "degrade", "evict", "interf", "maxI(dB)");
  for (std::size_t u = 0; u < user_counts.size(); ++u) {
    for (int a = 0; a < kArms; ++a) {
      const CellAggregate& cell =
          cells[u * kArms + static_cast<std::size_t>(a)];
      std::printf(
          "%5zu %-12s %8.2f%% %9llu %8llu %8llu %8llu %8llu %8llu %8llu "
          "%9.2f\n",
          user_counts[u], kArmNames[a],
          100.0 * bench::percentile(cell.glitch_fractions, 0.95),
          static_cast<unsigned long long>(cell.sums.glitched),
          static_cast<unsigned long long>(cell.sums.denials),
          static_cast<unsigned long long>(cell.sums.grants),
          static_cast<unsigned long long>(cell.sums.revocations),
          static_cast<unsigned long long>(cell.sums.degrades),
          static_cast<unsigned long long>(cell.sums.evictions),
          static_cast<unsigned long long>(cell.sums.interfered_frames),
          cell.sums.max_interference_db);
    }
  }

  // Gate 1: per-20 ms ledger invariants — every user, every count, both
  // arms.
  for (std::size_t u = 0; u < user_counts.size(); ++u) {
    for (int a = 0; a < kArms; ++a) {
      const CellAggregate& cell =
          cells[u * kArms + static_cast<std::size_t>(a)];
      gates.expect(
          cell.sums.ledger_violations == 0 && cell.sums.ledger_checks > 0,
          "ledger audit at %zu users (%s): %llu of %llu checks open",
          user_counts[u], kArmNames[a],
          static_cast<unsigned long long>(cell.sums.ledger_violations),
          static_cast<unsigned long long>(cell.sums.ledger_checks));
    }
  }

  // Gate 2: 1-user bit-identity against the standalone session.
  for (std::size_t s = 0; s < seed_list.size(); ++s) {
    const IdentityResult& id = identity_results[s];
    const auto seed = static_cast<unsigned long long>(seed_list[s]);
    if (!gates.expect(id.arena_fp == id.solo_fp,
                      "1-user arena fingerprint %s != standalone %s "
                      "(seed %llu)",
                      bench::fingerprint_hex(id.arena_fp).c_str(),
                      bench::fingerprint_hex(id.solo_fp).c_str(), seed)) {
      bench::print_replay("arena", seed_list[s], duration_s, " --users 2");
    }
    gates.expect(id.ledger_violations == 0,
                 "1-user arena ledger violations (seed %llu)", seed);
  }
  std::printf("\n1-user bit-identity: %zu seed(s) checked, fingerprints "
              "%s\n",
              seed_list.size(), gates.ok() ? "equal" : "see FAILs above");

  // Gates 3+4 bind at the contention point (16 users, or the largest swept
  // count >= 16); smaller-only sweeps are smoke runs for the machinery.
  std::size_t gate_idx = user_counts.size();
  for (std::size_t u = 0; u < user_counts.size(); ++u) {
    if (user_counts[u] == 16) {
      gate_idx = u;
    }
  }
  if (gate_idx == user_counts.size()) {
    for (std::size_t u = 0; u < user_counts.size(); ++u) {
      if (user_counts[u] >= 16) {
        gate_idx = u;
        break;
      }
    }
  }
  if (gate_idx < user_counts.size()) {
    const CellAggregate& arb =
        cells[gate_idx * kArms + static_cast<std::size_t>(Arm::kArbitration)];
    const CellAggregate& fcfs =
        cells[gate_idx * kArms + static_cast<std::size_t>(Arm::kFcfs)];
    const double p95_arb = bench::percentile(arb.glitch_fractions, 0.95);
    const double p95_fcfs = bench::percentile(fcfs.glitch_fractions, 0.95);
    std::printf("gate @ %zu users: p95 glitch fraction arbitration %.3f%% "
                "vs fcfs %.3f%%\n",
                user_counts[gate_idx], 100.0 * p95_arb, 100.0 * p95_fcfs);
    gates.expect(p95_arb < p95_fcfs,
                 "arbitration p95 glitch fraction %.4f does not beat fcfs "
                 "%.4f at %zu users",
                 p95_arb, p95_fcfs, user_counts[gate_idx]);
    gates.expect(arb.sums.denials > 0 && arb.sums.revocations > 0,
                 "contention never engaged at %zu users (denials %llu, "
                 "revocations %llu)",
                 user_counts[gate_idx],
                 static_cast<unsigned long long>(arb.sums.denials),
                 static_cast<unsigned long long>(arb.sums.revocations));
  }

  bench::Json rows = bench::Json::array();
  for (std::size_t u = 0; u < user_counts.size(); ++u) {
    for (int a = 0; a < kArms; ++a) {
      const CellAggregate& cell =
          cells[u * kArms + static_cast<std::size_t>(a)];
      bench::Json row = bench::Json::object();
      row.set("users", static_cast<std::uint64_t>(user_counts[u]))
          .set("arm", kArmNames[a])
          .set("p95_glitch_fraction",
               bench::percentile(cell.glitch_fractions, 0.95))
          .set("frames", cell.sums.frames)
          .set("glitched_frames", cell.sums.glitched)
          .set("reflector_denials", cell.sums.denials)
          .set("lease_grants", cell.sums.grants)
          .set("lease_revocations", cell.sums.revocations)
          .set("admission_degrades", cell.sums.degrades)
          .set("admission_evictions", cell.sums.evictions)
          .set("admission_readmissions", cell.sums.readmissions)
          .set("interfered_frames", cell.sums.interfered_frames)
          .set("max_interference_db", cell.sums.max_interference_db)
          .set("min_airtime_share", cell.sums.min_airtime_share)
          .set("ledger_checks", cell.sums.ledger_checks)
          .set("ledger_violations", cell.sums.ledger_violations);
      rows.push(std::move(row));
    }
  }
  const bool identity_ok =
      std::all_of(identity_results.begin(), identity_results.end(),
                  [](const IdentityResult& id) {
                    return id.arena_fp == id.solo_fp;
                  });
  gates.write(sweep.json,
              sweep.summary("arena", wall_s).set("identity_ok", identity_ok),
              "sweep", std::move(rows));
  return gates.finish(
      "%zu user counts x %d arms x %zu seeds, ledgers closed, 1-user runs "
      "bit-identical, arbitration beats FCFS at the contention point "
      "(%.1f s wall)",
      user_counts.size(), kArms, seed_list.size(), wall_s);
}
