// Frame-latency CDF under a standing blocker: MoVR against fixed beam and
// NLOS beam switching, transport data-plane enabled.
//
// The paper's QoE argument in distribution form: a person stops on the
// AP-headset line for 40% of the session. A strategy that bridges the
// blockage keeps the latency tail at the air's round-trip; one that does
// not drives the tail to infinity (frames that never complete). Prints the
// per-strategy CDF plus the transport counters that explain the tail, and
// exits nonzero when the packet ledger does not close or MoVR's p99 fails
// to beat both baselines; `ctest -L net` runs a short smoke.
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>

#include <baseline/strategies.hpp>
#include <sim/rng.hpp>
#include <vr/session.hpp>

#include "harness.hpp"

namespace {

using namespace movr;
using geom::deg_to_rad;

/// A person walks in and stands on the midpoint of the AP-headset line for
/// 40% of the session (a "standing" crossing: path_from == path_to).
vr::BlockageScript standing_blocker(sim::Duration duration) {
  vr::BlockageEvent person;
  person.kind = vr::BlockageEvent::Kind::kPersonCrossing;
  person.start = sim::Duration{duration.count() * 3 / 10};
  person.duration = sim::Duration{duration.count() * 4 / 10};
  person.path_from = {1.7, 1.3};
  person.path_to = {1.7, 1.3};
  return vr::BlockageScript{std::vector<vr::BlockageEvent>{person}};
}

/// A compressed VR stream whose keyframes fit the deadline at the top MCS —
/// clean air delivers everything, so the tail is pure blockage. The default
/// 2 Gbps matches the paper's compressed-stream budget; `--target-mbps`
/// sweeps the source rate (see --help for the keyframe caveat).
vr::Session::Config session_config(sim::Duration duration,
                                   double target_mbps) {
  vr::Session::Config config;
  config.duration = duration;
  net::TransportConfig transport;
  transport.source.target_mbps = target_mbps;
  config.transport = transport;
  return config;
}

struct Row {
  const char* name;
  vr::QoeReport report;
};

enum class Strategy { kMovr, kFixedBeam, kNlosSweep };

vr::QoeReport run_strategy(Strategy kind, const vr::Session::Config& config,
                           const vr::BlockageScript& script,
                           sim::RngRegistry& rngs) {
  auto scene = bench::paper_scene({3.0, 2.2}, false);
  scene.aim_direct();
  sim::Simulator simulator;
  switch (kind) {
    case Strategy::kMovr: {
      auto& reflector = scene.add_reflector({3.6, 4.8}, deg_to_rad(265.0));
      auto rng = rngs.stream("cal");
      scene.calibrate_reflector(reflector, rng);
      vr::MovrStrategy strategy{simulator, scene, rngs.stream("mgr")};
      vr::Session session{simulator, scene,  strategy,
                          nullptr,   &script, config};
      return session.run();
    }
    case Strategy::kFixedBeam: {
      baseline::FixedBeamStrategy strategy{scene};
      vr::Session session{simulator, scene,  strategy,
                          nullptr,   &script, config};
      return session.run();
    }
    case Strategy::kNlosSweep: {
      baseline::NlosSweepStrategy strategy{simulator, scene};
      vr::Session session{simulator, scene,  strategy,
                          nullptr,   &script, config};
      return session.run();
    }
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  double duration_s = 20.0;
  double target_mbps = 2000.0;
  std::string json_path;
  bench::Cli cli{
      "frame_latency — frame-latency CDF under a standing blocker\n\n"
      "Keyframes are ~2.5x the mean frame size, so a --target-mbps that fits\n"
      "the 10 ms frame deadline on average can still blow it on every\n"
      "keyframe: past roughly 1/2.5 of the air rate the keyframe tail\n"
      "dominates p99 and misses climb with no blocker in the room. Read the\n"
      "misses column next to the percentiles."};
  cli.flag("--duration", duration_s, "session length in seconds", "S")
      .flag("--target-mbps", target_mbps, "stream source rate in Mbps", "M")
      .flag("--json", json_path, "write a machine-readable summary to PATH");
  if (const auto status = cli.parse(argc, argv)) {
    return *status;
  }
  const auto duration = sim::from_seconds(duration_s);
  const auto script = standing_blocker(duration);
  const auto config = session_config(duration, target_mbps);
  sim::RngRegistry rngs{8};

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<Row> rows;
  rows.push_back({"MoVR (1 reflector)",
                  run_strategy(Strategy::kMovr, config, script, rngs)});
  rows.push_back({"fixed beam (WHDI)",
                  run_strategy(Strategy::kFixedBeam, config, script, rngs)});
  rows.push_back({"NLOS beam switching",
                  run_strategy(Strategy::kNlosSweep, config, script, rngs)});
  const double wall_s = bench::seconds_since(wall_start);

  bench::print_header(
      "Frame latency — standing blocker over 40% of the session (ms)");
  std::printf("%-22s %8s %8s %8s %10s %8s %8s %8s\n", "strategy", "p50",
              "p95", "p99", "misses", "retx", "drops", "dups");
  for (const Row& row : rows) {
    const net::TransportMetrics& m = *row.report.transport;
    std::printf("%-22s %8.2f %8.2f %8.2f %6lu/%-4lu %8lu %8lu %8lu\n",
                row.name, m.p50_ms, m.p95_ms, m.p99_ms,
                static_cast<unsigned long>(m.deadline_misses),
                static_cast<unsigned long>(m.frames_emitted),
                static_cast<unsigned long>(m.retransmits),
                static_cast<unsigned long>(m.packets_dropped),
                static_cast<unsigned long>(m.duplicates));
  }
  std::printf("\n");
  for (const Row& row : rows) {
    bench::print_cdf(row.name, bench::latency_samples(*row.report.transport));
  }

  // The bench doubles as an acceptance gate.
  bench::Gates gates;
  for (const Row& row : rows) {
    gates.expect(row.report.transport->conserved(),
                 "packet ledger does not close for %s", row.name);
  }
  const net::TransportMetrics& movr = *rows[0].report.transport;
  const net::TransportMetrics& fixed = *rows[1].report.transport;
  const net::TransportMetrics& nlos = *rows[2].report.transport;
  gates.expect(movr.p99_ms < fixed.p99_ms && movr.p99_ms < nlos.p99_ms,
               "MoVR p99 %.2f ms does not beat fixed %.2f / NLOS %.2f",
               movr.p99_ms, fixed.p99_ms, nlos.p99_ms);
  gates.expect(movr.p50_ms > 0.0 && movr.p99_ms > movr.p50_ms,
               "MoVR latency CDF is degenerate (p50 %.3f, p99 %.3f)",
               movr.p50_ms, movr.p99_ms);
  gates.expect(fixed.deadline_misses > 0,
               "the blocker never bit the fixed beam");

  bench::Json arms = bench::Json::array();
  for (const Row& row : rows) {
    const net::TransportMetrics& m = *row.report.transport;
    bench::Json arm = bench::Json::object();
    arm.set("name", row.name)
        .set("p50_ms", m.p50_ms)
        .set("p95_ms", m.p95_ms)
        .set("p99_ms", m.p99_ms)
        .set("frames", m.frames_emitted)
        .set("deadline_misses", m.deadline_misses)
        .set("retransmits", m.retransmits)
        .set("packets_dropped", m.packets_dropped);
    arms.push(std::move(arm));
  }
  bench::Json summary = bench::Json::object();
  summary.set("bench", "frame_latency")
      .set("wall_time_s", wall_s)
      .set("duration_s", duration_s)
      .set("target_mbps", target_mbps);
  gates.write(json_path, std::move(summary), "arms", std::move(arms));
  return gates.ok() ? 0 : 1;
}
