// Section 6's timing and power arguments, measured on the simulated system:
//
//  * every runtime control operation (steering, retargeting, handover) must
//    fit the 10 ms display budget;
//  * the full beam search is the one slow step and belongs at install time;
//  * a pocket battery replaces the USB power cable for a full play session.
#include <cstdio>

#include <core/movr.hpp>
#include <sim/rng.hpp>
#include <vr/requirements.hpp>

#include "bench_util.hpp"

int main() {
  using namespace movr;
  using geom::deg_to_rad;

  sim::RngRegistry rngs{7};
  auto scene = bench::paper_scene({3.0, 2.0}, false);
  auto& reflector = scene.add_reflector({3.6, 4.8}, deg_to_rad(265.0));

  bench::print_header("Sec. 6 — Latency budget of every control operation");
  const double frame_ms = sim::to_milliseconds(vr::kHtcVive.frame_interval());
  std::printf("display budget: %.1f ms frame interval, 10 ms motion-to-photon\n\n",
              frame_ms);
  std::printf("%-42s %12s %s\n", "operation", "cost", "fits a frame?");

  // 1. Electronic beam steering (phase shifter + DAC settle).
  std::printf("%-42s %9.3f ms %s\n", "AP/headset electronic beam steer",
              0.001, "yes (sub-microsecond)");

  // 2. Full incidence search (install time).
  sim::Simulator simulator;
  sim::ControlChannel control{simulator, {}, rngs.stream("bt")};
  control.attach(reflector.control_name(),
                 [&](const sim::ControlMessage& m) { reflector.handle(m); });
  core::IncidenceResult incidence;
  core::IncidenceSearch search{simulator, control, scene, reflector,
                               core::make_search_config(1.0),
                               rngs.stream("inc")};
  search.start([&](const core::IncidenceResult& r) { incidence = r; });
  simulator.run();
  std::printf("%-42s %9.1f ms %s\n",
              "full 101x101 backscatter angle search",
              sim::to_milliseconds(incidence.duration),
              "NO -> install-time only");

  // 3. Reflection search (start-up).
  scene.headset().node().face_toward(reflector.position());
  core::ReflectionResult reflection;
  core::ReflectionSearch rsearch{simulator, control, scene, reflector,
                                 core::make_search_config(1.0),
                                 rngs.stream("ref")};
  rsearch.start([&](const core::ReflectionResult& r) { reflection = r; });
  simulator.run();
  std::printf("%-42s %9.1f ms %s\n", "reflection-angle search (start-up)",
              sim::to_milliseconds(reflection.duration),
              "NO -> start-up only");

  // 4. Gain-control ramp.
  auto gain_rng = rngs.stream("gain");
  scene.ap().node().steer_toward(reflector.position());
  const auto gain = core::GainController::run(
      reflector.front_end(), scene.reflector_input(reflector), gain_rng);
  std::printf("%-42s %9.1f ms %s\n", "adaptive gain ramp (current knee)",
              sim::to_milliseconds(gain.duration),
              "NO -> runs at calibration");

  // 5. Pose-aided retarget (the paper's fast-tracking future work).
  auto tracker_rng = rngs.stream("tracker");
  const auto retarget =
      core::BeamTracker::retarget(scene, reflector, tracker_rng);
  std::printf("%-42s %9.1f ms %s\n", "pose-aided reflector retarget (1 BT cmd)",
              sim::to_milliseconds(retarget.duration),
              sim::to_milliseconds(retarget.duration) <= 2.0 * frame_ms
                  ? "within 1-2 frames"
                  : "NO");

  // 6. Full handover (detection to reflector-backed frame), measured live.
  {
    auto scene2 = bench::paper_scene({3.0, 2.0}, false);
    auto& r2 = scene2.add_reflector({4.6, 4.6}, deg_to_rad(225.0));
    auto cal_rng = rngs.stream("cal2");
    scene2.calibrate_reflector(r2, cal_rng);
    sim::Simulator sim2;
    core::LinkManager manager{sim2, scene2, rngs.stream("mgr")};
    for (int i = 0; i < 5; ++i) {
      manager.on_frame();
      sim2.run_until(sim2.now() + vr::kHtcVive.frame_interval());
    }
    scene2.room().add_obstacle(channel::make_hand(
        scene2.headset().node().position(),
        scene2.ap().node().position() - scene2.headset().node().position()));
    const auto blocked_at = sim2.now();
    int frames = 0;
    while (manager.on_frame().value() < 20.0 && frames < 50) {
      sim2.run_until(sim2.now() + vr::kHtcVive.frame_interval());
      ++frames;
    }
    std::printf("%-42s %9.1f ms %s\n",
                "blockage handover (detect + switch)",
                sim::to_milliseconds(sim2.now() - blocked_at),
                frames <= 5 ? "a few frames" : "NO");
  }

  bench::print_header("Sec. 6 — Battery sizing for the untethered headset");
  const core::BatteryModel battery{};
  std::printf("pack: %.0f mAh; draw %.0f mA avg / %.0f mA peak (HTC Vive)\n",
              battery.capacity_mah, battery.average_load_ma,
              battery.peak_load_ma);
  std::printf("runtime: %.1f h typical, %.1f h worst case\n",
              battery.runtime_hours(), battery.worst_case_hours());
  std::printf("paper: a 5200 mAh battery runs the headset for 4-5 hours\n");
  return 0;
}
