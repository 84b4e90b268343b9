// Ablation: pose-aided beam tracking (Section 6 future work) vs re-running
// the reflection search, while the player walks.
//
// Strategy A: re-aim the reflector from VR tracking data (one Bluetooth
//             command, BeamTracker).
// Strategy B: re-run the reflection search whenever the beam drifts
//             (a hundred Bluetooth rounds; the link is outage meanwhile).
// Both replay the same 30 s walk; the metric is delivered frames.
#include <cstdio>

#include <core/angle_search.hpp>
#include <core/predictive_tracker.hpp>
#include <phy/mcs.hpp>
#include <sim/rng.hpp>
#include <vr/motion.hpp>
#include <vr/requirements.hpp>

#include "bench_util.hpp"

namespace {

using namespace movr;
using geom::deg_to_rad;

struct Outcome {
  int frames{0};
  int glitched{0};
  int retargets{0};
  double control_ms{0.0};  // time spent re-aiming (link unusable meanwhile)
};

enum class Tracking { kFullSearch, kPoseAided, kPredictive };

Outcome run_walk(Tracking mode, std::uint64_t seed, double speed_mps = 0.6) {
  sim::RngRegistry rngs{seed};
  auto scene = bench::paper_scene({2.5, 2.5}, false);
  auto& reflector = scene.add_reflector({3.6, 4.8}, deg_to_rad(265.0));
  auto cal_rng = rngs.stream("cal");
  // Calibration leaves the AP's beam on the reflector, where the link lives
  // for the whole session (the direct path is considered blocked
  // throughout): isolates the tracking question.
  scene.calibrate_reflector(reflector, cal_rng);

  vr::PlayerMotion::Config motion_config;
  motion_config.speed_mps = speed_mps;
  vr::PlayerMotion motion{scene.room(), {2.5, 2.5}, 77, motion_config};
  auto track_rng = rngs.stream("track");
  core::PredictiveTracker predictor;

  Outcome outcome;
  const auto frame = vr::kHtcVive.frame_interval();
  const double required = vr::kHtcVive.required_mbps();
  const auto bt_latency = sim::Duration{std::chrono::milliseconds{10}};
  sim::TimePoint now{};
  // While a steering command is in flight the OLD beam keeps serving; only
  // a full re-search takes the link down (the beam is swept all over).
  sim::TimePoint outage_until{};
  std::optional<std::pair<sim::TimePoint, double>> in_flight;
  const sim::TimePoint end = sim::from_seconds(30.0);
  std::uint64_t search_index = 0;

  while (now < end) {
    scene.headset().node().set_position(motion.position_at(now));
    scene.headset().node().face_toward(reflector.position());

    if (in_flight && now >= in_flight->first) {
      reflector.front_end().steer_tx(in_flight->second);
      in_flight.reset();
    }

    if (mode == Tracking::kPredictive && !in_flight) {
      // The predictor decides for itself, every pose sample, against the
      // predicted-at-actuation angle.
      const auto command = predictor.on_pose(
          now, scene.headset().node().position(), reflector, track_rng);
      if (command) {
        ++outcome.retargets;
        in_flight = {now + bt_latency, command->tx_local_angle};
        outcome.control_ms += sim::to_milliseconds(bt_latency);
      }
    }

    const double tracked = scene.true_reflector_angle_to_headset(reflector);
    const double current = reflector.front_end().tx_array().steering();
    if (mode != Tracking::kPredictive && !in_flight &&
        now >= outage_until &&
        geom::angular_distance(tracked, current) > deg_to_rad(2.5)) {
      ++outcome.retargets;
      if (mode == Tracking::kPoseAided) {
        // Aim at the *current* tracked pose; the command lands one BT
        // exchange later, by which time the player has moved on.
        std::normal_distribution<double> jitter{0.0, 0.005};
        const geom::Vec2 aim =
            scene.headset().node().position() +
            geom::Vec2{jitter(track_rng), jitter(track_rng)};
        in_flight = {now + bt_latency,
                     reflector.to_local((aim - reflector.position()).heading())};
        outcome.control_ms += sim::to_milliseconds(bt_latency);
      } else {
        // Re-run the reflection search over Bluetooth; the whole sweep is
        // dead air for the data link.
        sim::Simulator search_sim;
        sim::ControlChannel control{search_sim, {},
                                    rngs.stream("search-bt", search_index)};
        control.attach(reflector.control_name(),
                       [&](const sim::ControlMessage& m) {
                         reflector.handle(m);
                       });
        core::ReflectionResult result;
        core::ReflectionSearch search{search_sim, control, scene, reflector,
                                      core::make_search_config(1.0),
                                      rngs.stream("search", search_index)};
        search.start([&](const core::ReflectionResult& r) { result = r; });
        search_sim.run();
        ++search_index;
        outage_until = now + result.duration;
        outcome.control_ms += sim::to_milliseconds(result.duration);
      }
    }
    ++outcome.frames;
    const bool link_usable = now >= outage_until;
    const double snr = scene.via_snr(reflector).snr.value();
    const bool delivered =
        link_usable && phy::rate_mbps(rf::Decibels{snr}) >= required;
    outcome.glitched += !delivered;
    now += frame;
  }
  return outcome;
}

void print_row(const char* name, const Outcome& o) {
  std::printf("%-26s %8d %10d (%4.1f%%) %9d %11.0f ms\n", name, o.frames,
              o.glitched,
              100.0 * o.glitched / std::max(o.frames, 1), o.retargets,
              o.control_ms);
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation — beam tracking strategies (30 s walk at 0.6 m/s)");
  std::printf("%-26s %8s %18s %9s %14s\n", "strategy", "frames",
              "glitched", "retargets", "control time");
  print_row("full re-search each time", run_walk(Tracking::kFullSearch, 5));
  print_row("pose-aided (1 BT cmd)", run_walk(Tracking::kPoseAided, 5));
  print_row("predictive (leads motion)", run_walk(Tracking::kPredictive, 5));

  bench::print_header(
      "Same, fast player (1.8 m/s strafes): prediction starts to matter");
  std::printf("%-26s %8s %18s %9s %14s\n", "strategy", "frames",
              "glitched", "retargets", "control time");
  print_row("pose-aided (1 BT cmd)",
            run_walk(Tracking::kPoseAided, 5, 1.8));
  print_row("predictive (leads motion)",
            run_walk(Tracking::kPredictive, 5, 1.8));

  std::printf("\nreading: tracking data turns a ~1 s sweep into a ~10 ms "
              "command — the difference\nbetween seamless play and a frozen "
              "headset every time the player walks a metre.\nPredicting the "
              "pose at command-arrival only shaves the margin slightly: at "
              "room scale\nand BLE latency, reactive pose-aiming is already "
              "within a beamwidth — the residual\nglitches are link-budget "
              "geometry (player far from the reflector), not lag.\n");
  return 0;
}
