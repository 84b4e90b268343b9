// QoE under scripted fault storms: glitch rate and time-to-recover as the
// fault intensity ramps from "quiet evening" to "everything at once".
//
// Each intensity level replays the SAME 20 s session (static-ish player,
// calibrated reflector, MoVR link management) while the fault injector
// layers on more trouble: control-channel brownouts, obstacle storms,
// amplifier gain sag, sensor bias drift, and finally a reflector power-
// cycle mid-session. The interesting output is not the glitch count per se
// but how recovery time grows — MoVR's pitch is that faults cost windows of
// frames, not the session.
#include <cstdio>
#include <vector>

#include <sim/fault_injector.hpp>
#include <sim/rng.hpp>
#include <vr/fault_scenarios.hpp>
#include <vr/session.hpp>

#include "bench_util.hpp"

namespace {

using namespace movr;
using geom::deg_to_rad;
using namespace std::chrono_literals;

struct Row {
  const char* name;
  vr::QoeReport report;
  int faults{0};
  int recovered{0};
  double mean_ttr_ms{0.0};
  double worst_ttr_ms{0.0};
};

Row run_level(const char* name, int intensity) {
  const auto duration = sim::from_seconds(20.0);
  auto scene = bench::paper_scene({3.0, 2.2}, false);
  auto& reflector = scene.add_reflector({3.6, 4.8}, deg_to_rad(265.0));
  sim::RngRegistry rngs{3};
  auto cal_rng = rngs.stream("cal");
  scene.calibrate_reflector(reflector, cal_rng);

  sim::Simulator simulator;
  sim::ControlChannel control{simulator, {}, rngs.stream("bt")};
  sim::FaultInjector injector{simulator};

  // Level 1+: a couple of control brownouts and a short obstacle storm.
  if (intensity >= 1) {
    injector.inject_control_brownout(control, sim::TimePoint{3s}, 2s,
                                     /*extra_loss=*/0.3, /*extra_latency=*/5ms);
    vr::ObstacleStormConfig storm;
    storm.start = sim::TimePoint{6s};
    storm.duration = 2s;
    storm.people = intensity;
    storm.seed = 17;
    vr::add_obstacle_storm(injector, scene.room(), storm);
  }
  // Level 2+: hardware drift — amplifier sag and sensor bias.
  if (intensity >= 2) {
    vr::add_gain_sag(injector, reflector, sim::TimePoint{9s}, 4s,
                     rf::Decibels{6.0});
    vr::add_sensor_bias_drift(injector, reflector, sim::TimePoint{9s}, 4s,
                              /*peak_bias_a=*/0.02);
  }
  // Level 3+: a reflector power-cycle while the link is riding it — a hand
  // blocks LOS over the reboot, so recovery needs the full quarantine ->
  // re-probe -> recalibration path.
  if (intensity >= 3) {
    injector.inject(
        "hand_blockage", sim::TimePoint{13s}, 3s,
        [&scene] {
          scene.room().add_obstacle(channel::make_hand(
              scene.headset().node().position(),
              scene.ap().node().position() -
                  scene.headset().node().position()));
        },
        [&scene] { scene.room().remove_obstacles("hand"); });
    vr::add_reflector_reboot(injector, reflector, sim::TimePoint{14s});
    injector.inject_control_brownout(control, sim::TimePoint{14s}, 1s,
                                     /*extra_loss=*/0.6,
                                     /*extra_latency=*/10ms);
  }

  vr::MovrStrategy strategy{simulator, scene, rngs.stream("mgr")};
  vr::Session::Config config;
  config.duration = duration;
  config.faults = &injector;
  vr::Session session{simulator, scene, strategy, nullptr, nullptr, config};

  Row row{name, session.run()};
  std::vector<double> ttrs;
  for (const auto& fr : row.report.fault_recovery) {
    ++row.faults;
    if (fr.recovered) {
      ++row.recovered;
    }
    ttrs.push_back(sim::to_milliseconds(fr.time_to_recover));
  }
  const auto ttr_stats = bench::stats_of(ttrs);
  row.mean_ttr_ms = ttr_stats.mean;
  row.worst_ttr_ms = ttr_stats.max;
  return row;
}

}  // namespace

int main() {
  std::vector<Row> rows;
  rows.push_back(run_level("baseline (no faults)", 0));
  rows.push_back(run_level("brownouts + storm", 1));
  rows.push_back(run_level("+ hw drift (sag, bias)", 2));
  rows.push_back(run_level("+ reflector reboot", 3));

  bench::print_header(
      "Fault storm — QoE vs fault intensity, 20 s MoVR session");
  std::printf("%-24s %8s %16s %8s %10s %12s %12s\n", "intensity", "frames",
              "glitched", "faults", "recovered", "mean TTR", "worst TTR");
  for (const Row& row : rows) {
    std::printf("%-24s %8lu %8lu (%5.1f%%) %8d %10d %9.0f ms %9.0f ms\n",
                row.name, static_cast<unsigned long>(row.report.frames),
                static_cast<unsigned long>(row.report.glitched_frames),
                100.0 * row.report.glitch_fraction(), row.faults,
                row.recovered, row.mean_ttr_ms, row.worst_ttr_ms);
  }

  // Machine-readable summary for trend tracking (stdout only; this bench
  // has no committed artifact).
  bench::Json levels = bench::Json::array();
  for (const Row& row : rows) {
    bench::Json level = bench::Json::object();
    level.set("glitch_fraction", row.report.glitch_fraction())
        .set("faults", row.faults)
        .set("recovered", row.recovered)
        .set("mean_ttr_ms", row.mean_ttr_ms);
    levels.push(std::move(level));
  }
  bench::Json doc = bench::Json::object();
  doc.set("bench", "fault_storm").set("levels", std::move(levels));
  bench::emit_json("", doc);
  return 0;
}
