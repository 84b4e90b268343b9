// Predictive vs reactive link control under motion-induced blockage.
//
// The tentpole acceptance harness for the predictive tier (DESIGN.md §10).
// Each seed builds one world: the paper office, a person standing on the
// AP side of the room, a calibrated reflector, and a headset pacing a
// fixed line that crosses the person's shadow once per leg — the one
// trajectory a short pose history can genuinely extrapolate. A seeded
// fault storm (loss windows that force the Gilbert–Elliott chain bad)
// plays over every arm. The world is a pure function of the seed; the
// four arms differ only in link control:
//
//   reactive    MovrStrategy — moves only after the SNR has collapsed
//   predictive  PredictiveMovrStrategy, honest forecasts (chaos 0)
//   chaos-50    same, but half of all forecasts inverted
//   chaos-100   every forecast wrong — real windows suppressed, spurious
//               ones fabricated in clear air
//
// Gates (aggregated across seeds):
//   - every arm's extended packet ledger (speculative buckets included)
//     closes at every 20 ms check and at session end
//   - predictive beats reactive on BOTH glitched frames and pooled p99
//   - the chaos arms stay within epsilon of reactive — a 100% wrong
//     forecaster must not regress the link beyond the containment budget
//   - the predictive tier actually engaged (risk windows, proactive
//     handovers, speculative dups all nonzero) and the blocker actually
//     bit the reactive arm (otherwise the comparison is vacuous)
//
// Every draw derives from the seed via sim::RngRegistry; a failing seed
// replays bit-identically and prints the replay command. Fingerprints
// compare replays byte-for-byte.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include <sim/fault_injector.hpp>
#include <sim/rng.hpp>
#include <vr/predictive.hpp>
#include <vr/session.hpp>

#include "harness.hpp"

namespace {

using namespace movr;
using bench::fingerprint_mix;
using bench::uniform;
using geom::deg_to_rad;
using namespace std::chrono_literals;

enum class Arm { kReactive, kPredictive, kChaosHalf, kChaosFull };

constexpr const char* kArmNames[] = {"reactive", "predictive", "chaos-50",
                                     "chaos-100"};
constexpr int kArms = 4;

/// The person stands still for the whole session; the *headset* does the
/// moving (the blockage is motion-induced, which is what makes it
/// forecastable from pose history).
constexpr geom::Vec2 kPerson{1.7, 1.3};

vr::BlockageScript standing_person(sim::Duration duration) {
  vr::BlockageEvent person;
  person.kind = vr::BlockageEvent::Kind::kPersonCrossing;
  person.start = sim::TimePoint{};
  person.duration = duration;
  person.path_from = kPerson;
  person.path_to = kPerson;
  return vr::BlockageScript{std::vector<vr::BlockageEvent>{person}};
}

/// The pacing line: perpendicular to the AP->person ray, centered on a
/// seeded point inside the person's shadow, long enough that each leg
/// starts and ends in clear air. Crossing the shadow at walking speed
/// gives the forecaster a few tens of ms of honest warning per leg.
struct PacingLine {
  geom::Vec2 a;
  geom::Vec2 b;
};

PacingLine pacing_line(std::mt19937_64& chaos) {
  const geom::Vec2 ap{0.4, 0.4};  // bench::paper_scene's AP corner
  const geom::Vec2 ray = (kPerson - ap).normalized();
  const geom::Vec2 perp{-ray.y, ray.x};
  const geom::Vec2 cross = ap + ray * uniform(chaos, 2.9, 3.6);
  const double half = uniform(chaos, 0.85, 1.1);
  return PacingLine{cross + perp * half, cross - perp * half};
}

/// One seed, one arm. The world — scene, blocker, pacing line, fault
/// windows, burst chain, every RNG stream — is a pure function of `seed`,
/// so the four arms differ only in the link-control strategy.
bench::ArmResult run_arm(Arm arm, std::uint64_t seed, double duration_s) {
  const auto duration = sim::from_seconds(duration_s);
  const sim::TimePoint end{duration};
  sim::RngRegistry rngs{seed};
  auto chaos = rngs.stream("chaos");

  const PacingLine line = pacing_line(chaos);
  auto scene = bench::paper_scene(line.a, false);
  scene.aim_direct();
  auto& reflector = scene.add_reflector({3.6, 4.8}, deg_to_rad(265.0));
  auto cal_rng = rngs.stream("cal");
  scene.calibrate_reflector(reflector, cal_rng);

  sim::Simulator simulator;
  // Brisk pacing, short end pauses: several shadow crossings per session,
  // each one a blockage onset the reactive tier can only chase.
  vr::PacingMotion::Config pacing;
  pacing.speed_mps = 1.2;
  pacing.pause = 200ms;
  vr::PacingMotion motion{line.a, line.b, pacing};
  const auto script = standing_person(duration);

  // Seeded fault storm: while a loss window is open the session marks the
  // link stressed and forces the burst chain's bad state in every arm.
  sim::FaultInjector faults{simulator};
  const int windows = std::max(2, static_cast<int>(duration_s / 3.0));
  for (int i = 0; i < windows; ++i) {
    const double slot = duration_s / static_cast<double>(windows);
    const double start = slot * i + uniform(chaos, 0.1 * slot, 0.6 * slot);
    const double len = uniform(chaos, 0.2, 0.45);
    faults.inject("loss-window", sim::TimePoint{sim::from_seconds(start)},
                  sim::from_seconds(len), [] {});
  }

  vr::Session::Config config;
  config.duration = duration;
  config.faults = &faults;
  // Closed-loop rate control: the adapter lags a collapsing SNR, so every
  // un-forecast blockage onset pays real packet loss until it backs off —
  // the cost the proactive handover exists to avoid.
  config.realistic_rate_control = true;
  config.rate_control_seed = seed * 13 + 5;
  net::TransportConfig transport;
  transport.source.target_mbps = 800.0;
  transport.ack_delay = std::chrono::microseconds{500};
  transport.arq.window = 16;
  transport.adaptive_fec = true;
  transport.source.seed = seed * 11 + 1;
  transport.seed = seed * 17 + 3;
  config.transport = transport;
  sim::BurstChannel::Config burst;
  burst.seed = rngs.stream("burst")();
  burst.loss_bad = 0.25;
  config.burst_loss = burst;

  auto mgr_rng = rngs.stream("mgr");
  bench::ArmResult result;
  const auto run_session = [&](vr::LinkStrategy& strategy) {
    vr::Session session{simulator, scene, strategy, &motion, &script, config};
    bench::audit_ledger(simulator, session, end, result);
    result.report = session.run();
  };

  if (arm == Arm::kReactive) {
    vr::MovrStrategy strategy{simulator, scene, mgr_rng};
    run_session(strategy);
  } else {
    vr::PredictiveMovrStrategy::Config pcfg;
    pcfg.forecaster.chaos_rate = arm == Arm::kChaosHalf   ? 0.5
                                 : arm == Arm::kChaosFull ? 1.0
                                                          : 0.0;
    pcfg.forecaster.chaos_seed = rngs.stream("chaos.forecast")();
    vr::PredictiveMovrStrategy strategy{simulator, scene, mgr_rng, pcfg};
    run_session(strategy);
  }

  const net::TransportMetrics& m = *result.report.transport;
  std::uint64_t h = sim::fnv1a("predictive");
  h = fingerprint_mix(h, seed);
  h = fingerprint_mix(h, static_cast<std::uint64_t>(arm));
  h = fingerprint_mix(h, m.frames_emitted);
  h = fingerprint_mix(h, m.deadline_misses);
  h = fingerprint_mix(h, m.packets_enqueued);
  h = fingerprint_mix(h, m.packets_delivered);
  h = fingerprint_mix(h, m.packets_dropped);
  h = fingerprint_mix(h, m.packets_recovered_delivered);
  h = fingerprint_mix(h, m.speculative_enqueued);
  h = fingerprint_mix(h, m.speculative_dups);
  h = fingerprint_mix(h, m.speculative_saves);
  h = fingerprint_mix(h, m.retransmits);
  h = fingerprint_mix(h, result.report.glitched_frames);
  if (result.report.predictive.has_value()) {
    const vr::PredictiveLinkStats& p = *result.report.predictive;
    h = fingerprint_mix(h, static_cast<std::uint64_t>(p.risk_windows));
    h = fingerprint_mix(h, static_cast<std::uint64_t>(p.proactive_handovers));
    h = fingerprint_mix(h, static_cast<std::uint64_t>(p.mispredictions));
    h = fingerprint_mix(h, static_cast<std::uint64_t>(p.chaos_garbled));
  }
  result.fingerprint = h;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::SweepFlags sweep{5, 16.0};
  bench::Cli cli{
      "predictive — predictive vs reactive link control under a pacing\n"
      "headset crossing a standing blocker's shadow, plus a seeded fault\n"
      "storm"};
  if (const auto status = sweep.bind(cli).parse(argc, argv)) {
    return *status;
  }
  const std::vector<std::uint64_t> seed_list = sweep.seed_list();
  const double duration_s = sweep.duration_s;

  bench::print_header(
      "Predictive link control — forecast blockage, hand over before it "
      "lands");
  std::printf("%5s %-11s %10s %8s %8s %8s %8s %8s %8s %18s\n", "seed", "arm",
              "glitched", "p99ms", "proact", "windows", "mispred", "specdup",
              "saves", "fingerprint");

  bench::Gates gates;
  // Aggregates across seeds, indexed by arm.
  std::uint64_t glitched[kArms] = {0, 0, 0, 0};
  std::uint64_t frames[kArms] = {0, 0, 0, 0};
  std::uint64_t spec_dups[kArms] = {0, 0, 0, 0};
  std::uint64_t spec_saves[kArms] = {0, 0, 0, 0};
  long risk_windows[kArms] = {0, 0, 0, 0};
  long proactive[kArms] = {0, 0, 0, 0};
  long mispredictions[kArms] = {0, 0, 0, 0};
  long chaos_garbled[kArms] = {0, 0, 0, 0};
  std::vector<double> pooled[kArms];

  const auto wall_start = std::chrono::steady_clock::now();
  for (const std::uint64_t seed : seed_list) {
    for (int a = 0; a < kArms; ++a) {
      const bench::ArmResult r =
          run_arm(static_cast<Arm>(a), seed, duration_s);
      const net::TransportMetrics& m = *r.report.transport;
      const vr::PredictiveLinkStats p =
          r.report.predictive.value_or(vr::PredictiveLinkStats{});
      std::printf("%5llu %-11s %5llu/%-4llu %8.2f %8d %8d %8d %8llu %8llu "
                  "%018llx\n",
                  static_cast<unsigned long long>(seed), kArmNames[a],
                  static_cast<unsigned long long>(r.report.glitched_frames),
                  static_cast<unsigned long long>(r.report.frames),
                  m.p99_ms, p.proactive_handovers, p.risk_windows,
                  p.mispredictions,
                  static_cast<unsigned long long>(m.speculative_dups),
                  static_cast<unsigned long long>(m.speculative_saves),
                  static_cast<unsigned long long>(r.fingerprint));
      glitched[a] += r.report.glitched_frames;
      frames[a] += r.report.frames;
      spec_dups[a] += m.speculative_dups;
      spec_saves[a] += m.speculative_saves;
      risk_windows[a] += p.risk_windows;
      proactive[a] += p.proactive_handovers;
      mispredictions[a] += p.mispredictions;
      chaos_garbled[a] += p.chaos_garbled;
      const auto samples = bench::latency_samples(m);
      pooled[a].insert(pooled[a].end(), samples.begin(), samples.end());

      bench::check_arm(gates, r, "predictive", kArmNames[a], "fault storm",
                       seed, duration_s);
    }
  }
  const double wall_s = bench::seconds_since(wall_start);

  const int react = static_cast<int>(Arm::kReactive);
  const int pred = static_cast<int>(Arm::kPredictive);
  double p99[kArms];
  for (int a = 0; a < kArms; ++a) {
    p99[a] = bench::percentile(pooled[a], 0.99);
  }

  std::printf("\n%-11s %10s %10s %8s %8s %8s\n", "aggregate", "glitched",
              "p99ms", "proact", "mispred", "garbled");
  for (int a = 0; a < kArms; ++a) {
    std::printf("%-11s %6llu/%-4llu %9.2f %8ld %8ld %8ld\n", kArmNames[a],
                static_cast<unsigned long long>(glitched[a]),
                static_cast<unsigned long long>(frames[a]), p99[a],
                proactive[a], mispredictions[a], chaos_garbled[a]);
  }

  // The policy gates are statistical aggregates — they bind on the
  // multi-seed sweep; a single-seed replay reproduces a ledger violation
  // or a fingerprint bit-identically.
  if (!sweep.replay()) {
    // Gate 1: the predictive arm must beat reactive on BOTH axes.
    gates.expect(glitched[pred] < glitched[react],
                 "predictive glitched %llu does not beat reactive %llu",
                 static_cast<unsigned long long>(glitched[pred]),
                 static_cast<unsigned long long>(glitched[react]));
    gates.expect(p99[pred] < p99[react],
                 "predictive pooled p99 %.2f ms does not beat reactive "
                 "%.2f ms",
                 p99[pred], p99[react]);

    // Gate 2: misprediction containment. Even a 100% wrong forecaster must
    // stay within epsilon of the reactive baseline: a bounded number of
    // wasted proactive handovers and the aperture-split penalty are the
    // whole permitted cost.
    const std::uint64_t glitch_epsilon =
        std::max<std::uint64_t>(5, frames[react] / 50);
    const double p99_epsilon_ms = 1.0;
    for (const int a : {static_cast<int>(Arm::kChaosHalf),
                        static_cast<int>(Arm::kChaosFull)}) {
      gates.expect(glitched[a] <= glitched[react] + glitch_epsilon,
                   "%s glitched %llu exceeds reactive %llu + epsilon %llu",
                   kArmNames[a], static_cast<unsigned long long>(glitched[a]),
                   static_cast<unsigned long long>(glitched[react]),
                   static_cast<unsigned long long>(glitch_epsilon));
      gates.expect(!(p99[a] > p99[react] + p99_epsilon_ms),
                   "%s p99 %.2f ms exceeds reactive %.2f ms + %.1f ms",
                   kArmNames[a], p99[a], p99[react], p99_epsilon_ms);
    }

    // Gate 3: engagement — the machinery under test must actually have run.
    gates.expect(risk_windows[pred] > 0 && proactive[pred] > 0 &&
                     spec_dups[pred] + spec_saves[pred] > 0,
                 "the predictive tier never engaged (windows %ld, proactive "
                 "%ld, spec dups %llu, saves %llu)",
                 risk_windows[pred], proactive[pred],
                 static_cast<unsigned long long>(spec_dups[pred]),
                 static_cast<unsigned long long>(spec_saves[pred]));
    const int cfull = static_cast<int>(Arm::kChaosFull);
    gates.expect(chaos_garbled[cfull] != 0 && mispredictions[cfull] != 0,
                 "the chaos knob never garbled a forecast (garbled %ld, "
                 "mispredictions %ld)",
                 chaos_garbled[cfull], mispredictions[cfull]);
    gates.expect(glitched[react] > 0,
                 "the blocker never bit the reactive arm — the comparison is "
                 "vacuous");
  }

  bench::Json arms = bench::Json::array();
  for (int a = 0; a < kArms; ++a) {
    bench::Json arm = bench::Json::object();
    arm.set("name", kArmNames[a])
        .set("p50_ms", bench::percentile(pooled[a], 0.50))
        .set("p99_ms", p99[a])
        .set("frames", frames[a])
        .set("glitched_frames", glitched[a])
        .set("risk_windows", risk_windows[a])
        .set("proactive_handovers", proactive[a])
        .set("mispredictions", mispredictions[a])
        .set("chaos_garbled", chaos_garbled[a])
        .set("speculative_dups", spec_dups[a])
        .set("speculative_saves", spec_saves[a]);
    arms.push(std::move(arm));
  }
  gates.write(sweep.json, sweep.summary("predictive", wall_s), "arms",
              std::move(arms));
  if (sweep.replay()) {
    return gates.finish(
        "single-seed replay, ledgers closed (aggregate policy gates apply to "
        "multi-seed sweeps only)");
  }
  return gates.finish(
      "%zu seeds x %.0f s x %d arms, ledgers closed, predictive beats "
      "reactive, mispredictions contained",
      seed_list.size(), duration_s, kArms);
}
