// ARQ-only vs static FEC vs adaptive hybrid under seeded burst loss.
//
// Each seed builds one world — the paper office, a MoVR strategy riding a
// calibrated reflector, a standing blocker over the middle of the session,
// and a Gilbert–Elliott burst channel whose bad state is forced open by
// seeded fault windows — and runs it three times with identical randomness,
// varying only the data-plane protection:
//
//   arq-only   no parity; every hole costs a retransmit round-trip
//   static-fec always-on FecParams{4,4}; pays parity airtime on clean air
//   adaptive   the RedundancyController: EWMA loss+burstiness with
//              hysteresis, deeper keyframe protection, proactive boost
//              while the link is stressed
//
// The packet-conservation ledger (enqueued == delivered + dropped +
// recovered-as-delivered + in-flight) is checked every 20 ms of sim time
// in every arm. The bench doubles as the acceptance gate for the hybrid:
// aggregated across seeds it must beat ARQ-only on BOTH residual frame
// loss (deadline-miss fraction) and pooled p99 frame latency, and it must
// actually have engaged (frames protected, packets recovered).
//
// Every draw derives from the seed via sim::RngRegistry, so a failing seed
// replays bit-identically; on failure the exact replay command is printed.
// Each arm carries a fingerprint hash so a replay can be compared
// byte-for-byte against the sweep.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include <sim/fault_injector.hpp>
#include <sim/rng.hpp>
#include <vr/session.hpp>

#include "harness.hpp"

namespace {

using namespace movr;
using bench::fingerprint_mix;
using bench::uniform;
using geom::deg_to_rad;

enum class Arm { kArqOnly, kStaticFec, kAdaptive };

constexpr const char* kArmNames[] = {"arq-only", "static-fec", "adaptive"};

/// A person stands on the AP-headset line for 40% of the session.
vr::BlockageScript standing_blocker(sim::Duration duration) {
  vr::BlockageEvent person;
  person.kind = vr::BlockageEvent::Kind::kPersonCrossing;
  person.start = sim::Duration{duration.count() * 3 / 10};
  person.duration = sim::Duration{duration.count() * 4 / 10};
  person.path_from = {1.7, 1.3};
  person.path_to = {1.7, 1.3};
  return vr::BlockageScript{std::vector<vr::BlockageEvent>{person}};
}

/// One seed, one arm. The world — scene, blocker, fault windows, burst
/// chain, every RNG stream — is a pure function of `seed`, so the three
/// arms differ only in the transport's protection config.
bench::ArmResult run_arm(Arm arm, std::uint64_t seed, double duration_s) {
  const auto duration = sim::from_seconds(duration_s);
  const sim::TimePoint end{duration};
  sim::RngRegistry rngs{seed};
  auto chaos = rngs.stream("chaos");

  auto scene = bench::paper_scene(
      {uniform(chaos, 2.2, 3.2), uniform(chaos, 1.6, 2.6)}, false);
  scene.aim_direct();
  auto& reflector = scene.add_reflector({3.6, 4.8}, deg_to_rad(265.0));
  auto cal_rng = rngs.stream("cal");
  scene.calibrate_reflector(reflector, cal_rng);

  sim::Simulator simulator;
  vr::MovrStrategy strategy{simulator, scene, rngs.stream("mgr")};
  const auto script = standing_blocker(duration);

  // Seeded loss windows: while one is open the session marks the link
  // stressed and forces the burst chain's bad state — the interference
  // spikes the channel model turns into correlated MPDU loss.
  sim::FaultInjector faults{simulator};
  const int windows = std::max(2, static_cast<int>(duration_s / 2.5));
  for (int i = 0; i < windows; ++i) {
    const double slot = duration_s / static_cast<double>(windows);
    const double start = slot * i + uniform(chaos, 0.1 * slot, 0.6 * slot);
    const double len = uniform(chaos, 0.25, 0.6);
    faults.inject("loss-window", sim::TimePoint{sim::from_seconds(start)},
                  sim::from_seconds(len), [] {});
  }

  vr::Session::Config config;
  config.duration = duration;
  config.faults = &faults;
  net::TransportConfig transport;
  // Moderate utilization, realistic loss discovery: at 800 Mbps the air has
  // headroom, and a 500 µs block-ack horizon (vs the 5 µs default used by
  // the unit suites) makes every ARQ repair pay a detection round-trip that
  // an inline parity repair does not — the trade this bench measures. The
  // wider window keeps the pipe full across that horizon in every arm.
  transport.source.target_mbps = 800.0;
  transport.ack_delay = std::chrono::microseconds{500};
  transport.arq.window = 16;
  transport.source.seed = seed * 11 + 1;
  transport.seed = seed * 17 + 3;
  switch (arm) {
    case Arm::kArqOnly:
      break;
    case Arm::kStaticFec:
      transport.fec = net::FecParams{4, 4};
      break;
    case Arm::kAdaptive:
      transport.adaptive_fec = true;
      break;
  }
  config.transport = transport;
  sim::BurstChannel::Config burst;
  burst.seed = rngs.stream("burst")();
  // Severe but survivable: at 25% in-burst MPDU loss a well-spent
  // redundancy budget saves most frames, so the arms separate on policy
  // rather than all drowning together (at the default 40% nothing does).
  burst.loss_bad = 0.25;
  config.burst_loss = burst;

  vr::Session session{simulator, scene, strategy, nullptr, &script, config};

  bench::ArmResult result;
  bench::audit_ledger(simulator, session, end, result);
  result.report = session.run();

  const net::TransportMetrics& m = *result.report.transport;
  std::uint64_t h = sim::fnv1a("burst_loss");
  h = fingerprint_mix(h, seed);
  h = fingerprint_mix(h, static_cast<std::uint64_t>(arm));
  h = fingerprint_mix(h, m.frames_emitted);
  h = fingerprint_mix(h, m.deadline_misses);
  h = fingerprint_mix(h, m.packets_enqueued);
  h = fingerprint_mix(h, m.packets_delivered);
  h = fingerprint_mix(h, m.packets_dropped);
  h = fingerprint_mix(h, m.packets_recovered);
  h = fingerprint_mix(h, m.packets_recovered_delivered);
  h = fingerprint_mix(h, m.parity_enqueued);
  h = fingerprint_mix(h, m.retransmits);
  if (result.report.burst.has_value()) {
    h = fingerprint_mix(h, result.report.burst->steps_bad);
    h = fingerprint_mix(h, result.report.burst->bursts);
    h = fingerprint_mix(h, result.report.burst->forced_bad);
  }
  result.fingerprint = h;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::SweepFlags sweep{6, 12.0};
  bench::Cli cli{
      "burst_loss — ARQ-only vs static FEC vs adaptive hybrid under a\n"
      "seeded Gilbert–Elliott burst channel"};
  if (const auto status = sweep.bind(cli).parse(argc, argv)) {
    return *status;
  }
  const std::vector<std::uint64_t> seed_list = sweep.seed_list();
  const double duration_s = sweep.duration_s;

  bench::print_header(
      "Burst loss — ARQ-only vs static FEC vs adaptive hybrid FEC/ARQ");
  std::printf("%5s %-11s %10s %8s %8s %8s %8s %8s %8s %18s\n", "seed", "arm",
              "misses", "p99ms", "retx", "parity", "recov", "drops",
              "bursts", "fingerprint");

  bench::Gates gates;
  // Aggregates across seeds, indexed by arm.
  std::uint64_t misses[3] = {0, 0, 0};
  std::uint64_t frames[3] = {0, 0, 0};
  std::uint64_t retransmits[3] = {0, 0, 0};
  std::uint64_t drops[3] = {0, 0, 0};
  std::uint64_t protected_frames = 0;
  std::uint64_t recovered = 0;
  std::vector<double> pooled[3];

  const auto wall_start = std::chrono::steady_clock::now();
  for (const std::uint64_t seed : seed_list) {
    for (int a = 0; a < 3; ++a) {
      const bench::ArmResult r = run_arm(static_cast<Arm>(a), seed, duration_s);
      const net::TransportMetrics& m = *r.report.transport;
      std::printf("%5llu %-11s %5llu/%-4llu %8.2f %8llu %8llu %8llu %8llu "
                  "%8llu %018llx\n",
                  static_cast<unsigned long long>(seed), kArmNames[a],
                  static_cast<unsigned long long>(m.deadline_misses),
                  static_cast<unsigned long long>(m.frames_emitted), m.p99_ms,
                  static_cast<unsigned long long>(m.retransmits),
                  static_cast<unsigned long long>(m.parity_enqueued),
                  static_cast<unsigned long long>(m.packets_recovered),
                  static_cast<unsigned long long>(m.packets_dropped),
                  static_cast<unsigned long long>(
                      r.report.burst ? r.report.burst->bursts : 0),
                  static_cast<unsigned long long>(r.fingerprint));
      misses[a] += m.deadline_misses;
      frames[a] += m.frames_emitted;
      retransmits[a] += m.retransmits;
      drops[a] += m.packets_dropped;
      if (a == static_cast<int>(Arm::kAdaptive)) {
        protected_frames += m.fec_frames_protected;
        recovered += m.packets_recovered;
      }
      const auto samples = bench::latency_samples(m);
      pooled[a].insert(pooled[a].end(), samples.begin(), samples.end());
      bench::check_arm(gates, r, "burst_loss", kArmNames[a], "fault windows",
                       seed, duration_s);
    }
  }
  const double wall_s = bench::seconds_since(wall_start);

  const auto miss_fraction = [&](int a) {
    return frames[a] > 0 ? static_cast<double>(misses[a]) /
                               static_cast<double>(frames[a])
                         : 0.0;
  };
  const int arq = static_cast<int>(Arm::kArqOnly);
  const int fec = static_cast<int>(Arm::kStaticFec);
  const int hyb = static_cast<int>(Arm::kAdaptive);
  const double p99[3] = {bench::percentile(pooled[arq], 0.99),
                         bench::percentile(pooled[fec], 0.99),
                         bench::percentile(pooled[hyb], 0.99)};

  std::printf("\n%-11s %10s %10s\n", "aggregate", "miss-frac", "p99ms");
  for (int a = 0; a < 3; ++a) {
    std::printf("%-11s %9.3f%% %10.2f\n", kArmNames[a],
                100.0 * miss_fraction(a), p99[a]);
  }

  // The hybrid's acceptance gates are statistical aggregates — they bind on
  // the multi-seed sweep. A single-seed replay exists to reproduce a ledger
  // violation or a fingerprint bit-identically, so only the per-arm
  // invariants above apply there.
  if (!sweep.replay()) {
    gates.expect(miss_fraction(hyb) < miss_fraction(arq),
                 "adaptive residual loss %.3f%% does not beat ARQ-only %.3f%%",
                 100.0 * miss_fraction(hyb), 100.0 * miss_fraction(arq));
    gates.expect(p99[hyb] < p99[arq],
                 "adaptive pooled p99 %.2f ms does not beat ARQ-only %.2f ms",
                 p99[hyb], p99[arq]);
    gates.expect(protected_frames > 0 && recovered > 0,
                 "the adaptive layer never engaged (protected %llu, "
                 "recovered %llu)",
                 static_cast<unsigned long long>(protected_frames),
                 static_cast<unsigned long long>(recovered));
    gates.expect(misses[arq] > 0,
                 "the burst channel never bit the ARQ-only arm — the "
                 "comparison is vacuous");
  }

  // Residual loss == aggregate deadline-miss fraction per arm, percentiles
  // pooled across seeds.
  bench::Json arms = bench::Json::array();
  for (int a = 0; a < 3; ++a) {
    bench::Json arm = bench::Json::object();
    arm.set("name", kArmNames[a])
        .set("p50_ms", bench::percentile(pooled[a], 0.50))
        .set("p95_ms", bench::percentile(pooled[a], 0.95))
        .set("p99_ms", p99[a])
        .set("frames", frames[a])
        .set("deadline_misses", misses[a])
        .set("residual_loss", miss_fraction(a))
        .set("retransmits", retransmits[a])
        .set("packets_dropped", drops[a]);
    arms.push(std::move(arm));
  }
  gates.write(sweep.json, sweep.summary("burst_loss", wall_s), "arms",
              std::move(arms));
  if (sweep.replay()) {
    return gates.finish(
        "single-seed replay, ledgers closed (aggregate policy gates apply to "
        "multi-seed sweeps only)");
  }
  return gates.finish(
      "%zu seeds x %.0f s x 3 arms, ledgers closed, hybrid beats ARQ-only",
      seed_list.size(), duration_s);
}
