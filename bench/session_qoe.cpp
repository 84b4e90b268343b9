// End-to-end VR session quality: MoVR against every baseline, replaying the
// SAME world (motion + blockage script) under each link strategy.
//
// This is the experience-level consequence of Figs. 3 and 9: blocked frames
// are glitches the player sees; a strategy either bridges blockages or it
// does not. Also covers the paper's Section 1 WiFi argument.
#include <cstdio>
#include <string>

#include <baseline/dual_antenna.hpp>
#include <baseline/strategies.hpp>
#include <baseline/wifi.hpp>
#include <core/config_epoch.hpp>
#include <sim/burst_channel.hpp>
#include <sim/fault_injector.hpp>
#include <sim/rng.hpp>
#include <vr/session.hpp>

#include "harness.hpp"

namespace {

using namespace movr;
using geom::deg_to_rad;

vr::BlockageScript busy_living_room(sim::TimePoint end) {
  // Hands up every 3 s, a head turn at 8 s, a person crossing at 14 s.
  std::vector<vr::BlockageEvent> events =
      vr::periodic_hand_raises(sim::from_seconds(2.0), sim::from_seconds(0.8),
                               sim::from_seconds(3.0), end)
          .events();
  vr::BlockageEvent head;
  head.kind = vr::BlockageEvent::Kind::kHead;
  head.start = sim::from_seconds(8.5);
  head.duration = sim::from_seconds(1.5);
  events.push_back(head);
  vr::BlockageEvent person;
  person.kind = vr::BlockageEvent::Kind::kPersonCrossing;
  person.start = sim::from_seconds(14.0);
  person.duration = sim::from_seconds(4.0);
  person.path_from = {0.5, 2.8};
  person.path_to = {4.5, 1.2};
  events.push_back(person);
  return vr::BlockageScript{std::move(events)};
}

struct Row {
  const char* name;
  vr::QoeReport report;
  double extra{0.0};
};

}  // namespace

int main(int argc, char** argv) {
  bool with_transport = false;
  bool with_control_faults = false;
  bool with_burst_loss = false;
  std::string json_path;
  bench::Cli cli{
      "session_qoe — 20 s of play under MoVR and every baseline, replaying\n"
      "the same motion and blockage script under each link strategy"};
  cli.flag("--transport", with_transport,
           "run the frame transport and print its counters")
      .flag("--control-faults", with_control_faults,
            "partition MoVR's control plane for 1.5 s mid-session")
      .flag("--burst-loss", with_burst_loss,
            "seeded burst loss, adaptive FEC/ARQ (implies --transport)")
      .flag("--json", json_path, "write a machine-readable summary to PATH");
  if (const auto status = cli.parse(argc, argv)) {
    return *status;
  }
  with_transport = with_transport || with_burst_loss;

  sim::RngRegistry rngs{3};
  const auto duration = sim::from_seconds(20.0);
  const auto script = busy_living_room(duration);

  vr::Session::Config config;
  config.duration = duration;
  if (with_transport) {
    // Compressed stream whose keyframes fit the frame deadline, so the
    // transport counters reflect blockage, not raw-bitrate saturation.
    net::TransportConfig transport;
    transport.source.target_mbps = 2000.0;
    if (with_burst_loss) {
      transport.adaptive_fec = true;
      sim::BurstChannel::Config burst;
      burst.seed = rngs.stream("burst")();
      config.burst_loss = burst;
    }
    config.transport = transport;
  }

  std::vector<Row> rows;

  // MoVR.
  {
    auto scene = bench::paper_scene({3.0, 2.2}, false);
    auto& reflector = scene.add_reflector({3.6, 4.8}, deg_to_rad(265.0));
    auto rng = rngs.stream("cal");
    scene.calibrate_reflector(reflector, rng);
    sim::Simulator simulator;
    vr::MovrStrategy strategy{simulator, scene, rngs.stream("mgr")};
    vr::PlayerMotion motion{scene.room(), {3.0, 2.2}, 11};
    sim::ControlChannel control{simulator, {}, rngs.stream("ctrl")};
    core::ReflectorConfigAgent agent{simulator, control, reflector, {},
                                     rngs.stream("agent")};
    core::ControlPlane plane{simulator, control, {}};
    sim::FaultInjector injector{simulator};
    auto movr_config = config;
    if (with_control_faults) {
      agent.start();
      plane.bind_health(&strategy.manager().health());
      plane.manage(0, reflector, &agent);
      plane.start();
      plane.commit(0, {reflector.front_end().rx_array().steering(),
                       reflector.front_end().tx_array().steering(),
                       reflector.front_end().gain_code()});
      injector.inject_control_partition(control, sim::from_seconds(6.0),
                                        sim::from_seconds(1.5));
      movr_config.faults = &injector;
      movr_config.control_plane = &plane;
    }
    vr::Session session{simulator, scene,   strategy,
                        &motion,   &script, movr_config};
    rows.push_back({"MoVR (1 reflector)", session.run()});
  }
  // Direct tracking, no reflector.
  {
    auto scene = bench::paper_scene({3.0, 2.2}, false);
    sim::Simulator simulator;
    baseline::DirectTrackingStrategy strategy{scene};
    vr::PlayerMotion motion{scene.room(), {3.0, 2.2}, 11};
    vr::Session session{simulator, scene, strategy, &motion, &script, config};
    rows.push_back({"direct (pose-tracked)", session.run()});
  }
  // NLOS beam-switching (current mmWave practice).
  {
    auto scene = bench::paper_scene({3.0, 2.2}, false);
    sim::Simulator simulator;
    baseline::NlosSweepStrategy strategy{simulator, scene};
    vr::PlayerMotion motion{scene.room(), {3.0, 2.2}, 11};
    vr::Session session{simulator, scene, strategy, &motion, &script, config};
    rows.push_back({"NLOS beam switching", session.run(),
                    static_cast<double>(strategy.sweeps_performed())});
  }
  // Standard 802.11ad tracking: periodic SLS + refinement, no pose oracle.
  {
    auto scene = bench::paper_scene({3.0, 2.2}, false);
    sim::Simulator simulator;
    baseline::SlsTrackingStrategy strategy{simulator, scene};
    vr::PlayerMotion motion{scene.room(), {3.0, 2.2}, 11};
    vr::Session session{simulator, scene, strategy, &motion, &script, config};
    rows.push_back({"802.11ad SLS tracking", session.run(),
                    static_cast<double>(strategy.sweeps_performed())});
  }
  // Dual antenna (Section 3's "second antenna on the back" proposal).
  {
    auto scene = bench::paper_scene({3.0, 2.2}, false);
    sim::Simulator simulator;
    baseline::DualAntennaStrategy strategy{scene};
    vr::PlayerMotion motion{scene.room(), {3.0, 2.2}, 11};
    vr::Session session{simulator, scene, strategy, &motion, &script, config};
    rows.push_back({"dual antenna (front+back)", session.run()});
  }
  // Fixed beam (WHDI-class).
  {
    auto scene = bench::paper_scene({3.0, 2.2}, false);
    sim::Simulator simulator;
    baseline::FixedBeamStrategy strategy{scene};
    vr::PlayerMotion motion{scene.room(), {3.0, 2.2}, 11};
    vr::Session session{simulator, scene, strategy, &motion, &script, config};
    rows.push_back({"fixed beam (WHDI)", session.run()});
  }

  bench::print_header(
      "Session QoE — 20 s play with hands, head turns, and a passer-by");
  std::printf("%-24s %8s %16s %10s %12s %12s\n", "strategy", "frames",
              "glitched", "stalls", "longest", "mean SNR");
  for (const Row& row : rows) {
    std::printf("%-24s %8lu %8lu (%5.1f%%) %10lu %9.0f ms %9.1f dB\n",
                row.name, static_cast<unsigned long>(row.report.frames),
                static_cast<unsigned long>(row.report.glitched_frames),
                100.0 * row.report.glitch_fraction(),
                static_cast<unsigned long>(row.report.stall_events),
                sim::to_milliseconds(row.report.longest_stall),
                row.report.mean_snr_db);
  }

  if (with_transport) {
    std::printf("\n%-24s %10s %10s %10s %10s %8s\n", "transport", "misses",
                "retx", "drops", "p95 ms", "p99 ms");
    for (const Row& row : rows) {
      const net::TransportMetrics& m = *row.report.transport;
      std::printf("%-24s %10lu %10lu %10lu %10.2f %8.2f\n", row.name,
                  static_cast<unsigned long>(m.deadline_misses),
                  static_cast<unsigned long>(m.retransmits),
                  static_cast<unsigned long>(m.packets_dropped), m.p95_ms,
                  m.p99_ms);
    }
  }

  if (with_burst_loss) {
    std::printf("\n%-24s %10s %10s %10s %10s %10s\n", "burst/FEC",
                "protected", "parity", "recovered", "residual", "bursts");
    for (const Row& row : rows) {
      const net::TransportMetrics& m = *row.report.transport;
      std::printf("%-24s %10lu %10lu %10lu %10lu %10lu\n", row.name,
                  static_cast<unsigned long>(m.fec_frames_protected),
                  static_cast<unsigned long>(m.parity_enqueued),
                  static_cast<unsigned long>(m.packets_recovered),
                  static_cast<unsigned long>(m.deadline_misses),
                  static_cast<unsigned long>(
                      row.report.burst ? row.report.burst->bursts : 0));
    }
  }

  for (const Row& row : rows) {
    if (!row.report.control_plane) {
      continue;
    }
    const core::ControlPlaneIncidents& cp = *row.report.control_plane;
    std::printf(
        "\ncontrol plane (%s): partitions %lu entered / %lu healed, "
        "divergences %lu, reconciliations %lu, reboots %lu, "
        "ack timeouts %lu, safe-mode entries %lu, oscillation trips %lu\n",
        row.name, static_cast<unsigned long>(cp.partitions_entered),
        static_cast<unsigned long>(cp.partitions_healed),
        static_cast<unsigned long>(cp.divergences_detected),
        static_cast<unsigned long>(cp.reconciliations),
        static_cast<unsigned long>(cp.reboots_detected),
        static_cast<unsigned long>(cp.ack_timeouts),
        static_cast<unsigned long>(cp.safe_mode_entries),
        static_cast<unsigned long>(cp.oscillation_trips));
  }

  std::printf("\nWiFi check (Section 1): best 802.11ac rate at infinite SNR "
              "= %.0f Mbps < required %.0f Mbps\n",
              baseline::wifi_max_rate_mbps(), vr::kHtcVive.required_mbps());

  if (!json_path.empty()) {
    bench::Json strategies = bench::Json::array();
    for (const Row& row : rows) {
      bench::Json entry = bench::Json::object();
      entry.set("name", row.name)
          .set("frames", row.report.frames)
          .set("glitched_frames", row.report.glitched_frames)
          .set("glitch_fraction", row.report.glitch_fraction())
          .set("stall_events", row.report.stall_events)
          .set("longest_stall_ms", sim::to_milliseconds(row.report.longest_stall))
          .set("mean_snr_db", row.report.mean_snr_db)
          .set("min_snr_db", row.report.min_snr_db)
          .set("mean_rate_mbps", row.report.mean_rate_mbps);
      if (row.report.transport) {
        const net::TransportMetrics& m = *row.report.transport;
        bench::Json transport = bench::Json::object();
        transport.set("deadline_misses", m.deadline_misses)
            .set("retransmits", m.retransmits)
            .set("packets_dropped", m.packets_dropped)
            .set("p50_ms", m.p50_ms)
            .set("p95_ms", m.p95_ms)
            .set("p99_ms", m.p99_ms);
        if (with_burst_loss) {
          transport.set("fec_frames_protected", m.fec_frames_protected)
              .set("parity_enqueued", m.parity_enqueued)
              .set("packets_recovered", m.packets_recovered);
        }
        entry.set("transport", std::move(transport));
      }
      if (row.report.burst) {
        bench::Json burst = bench::Json::object();
        burst.set("steps", row.report.burst->steps)
            .set("steps_bad", row.report.burst->steps_bad)
            .set("bursts", row.report.burst->bursts)
            .set("longest_burst_steps", row.report.burst->longest_burst_steps);
        entry.set("burst", std::move(burst));
      }
      strategies.push(std::move(entry));
    }
    bench::Json doc = bench::Json::object();
    doc.set("bench", "session_qoe")
        .set("duration_s", sim::to_seconds(duration))
        .set("transport", with_transport)
        .set("burst_loss", with_burst_loss)
        .set("control_faults", with_control_faults)
        .set("wifi_max_rate_mbps", baseline::wifi_max_rate_mbps())
        .set("required_mbps", vr::kHtcVive.required_mbps())
        .set("strategies", std::move(strategies));
    if (!bench::emit_json(json_path, doc)) {
      return 1;
    }
  }
  return 0;
}
