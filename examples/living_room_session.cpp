// A realistic living-room play session: the player walks the room while
// family members wander through, hands go up for gameplay, the head turns.
// The session replays identically under MoVR and under a no-reflector
// baseline so the QoE difference is attributable to the system alone.
//
//   $ ./example_living_room_session
#include <cstdio>

#include <baseline/strategies.hpp>
#include <core/movr.hpp>
#include <sim/rng.hpp>
#include <vr/session.hpp>

namespace {

using namespace movr;
using geom::deg_to_rad;

core::Scene make_living_room() {
  channel::Room room{5.0, 5.0};
  // Sofa along the south wall and a TV stand next to the AP corner.
  room.add_obstacle({geom::Circle{{2.5, 0.35}, 0.4}, channel::kFurniture,
                     "sofa"});
  room.add_obstacle({geom::Circle{{1.1, 0.3}, 0.25}, channel::kFurniture,
                     "tv-stand"});
  return core::Scene{std::move(room),
                     core::ApRadio{{0.4, 0.4}, deg_to_rad(45.0)},
                     core::HeadsetRadio{{2.8, 2.6}, 0.0}};
}

vr::BlockageScript family_evening(sim::TimePoint end) {
  auto script = vr::periodic_hand_raises(sim::from_seconds(1.5),
                                         sim::from_seconds(0.7),
                                         sim::from_seconds(4.0), end);
  std::vector<vr::BlockageEvent> events = script.events();
  for (double t = 10.0; t + 5.0 < sim::to_seconds(end); t += 15.0) {
    vr::BlockageEvent crossing;
    crossing.kind = vr::BlockageEvent::Kind::kPersonCrossing;
    crossing.start = sim::from_seconds(t);
    crossing.duration = sim::from_seconds(5.0);
    crossing.path_from = {0.6, 3.8};
    crossing.path_to = {4.4, 0.9};
    events.push_back(crossing);
    vr::BlockageEvent head;
    head.kind = vr::BlockageEvent::Kind::kHead;
    head.start = sim::from_seconds(t + 7.0);
    head.duration = sim::from_seconds(1.2);
    events.push_back(head);
  }
  return vr::BlockageScript{std::move(events)};
}

void print_report(const char* label, const vr::QoeReport& report) {
  std::printf("%-22s %6lu frames, %5lu glitched (%.2f%%), %3lu stalls, "
              "longest %4.0f ms, mean SNR %.1f dB\n",
              label, static_cast<unsigned long>(report.frames),
              static_cast<unsigned long>(report.glitched_frames),
              100.0 * report.glitch_fraction(),
              static_cast<unsigned long>(report.stall_events),
              sim::to_milliseconds(report.longest_stall),
              report.mean_snr_db);
}

}  // namespace

int main() {
  sim::RngRegistry rngs{88};
  const auto duration = sim::from_seconds(60.0);
  const auto script = family_evening(duration);
  vr::Session::Config config;
  config.duration = duration;

  std::printf("60 s living-room session: walking player, hand raises every "
              "4 s,\na person crossing every 15 s, occasional head turns.\n\n");

  // --- MoVR: two reflectors covering the play space --------------------
  {
    auto scene = make_living_room();
    auto& far_corner = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0));
    auto& side_wall = scene.add_reflector({0.4, 4.6}, deg_to_rad(315.0));
    std::mt19937_64 cal_rng{9};
    for (auto* r : {&far_corner, &side_wall}) {
      scene.calibrate_reflector(*r, cal_rng);
    }
    sim::Simulator simulator;
    vr::MovrStrategy strategy{simulator, scene, rngs.stream("movr")};
    vr::PlayerMotion motion{scene.room(), {2.8, 2.6}, 42};
    vr::Session session{simulator, scene, strategy, &motion, &script, config};
    const auto report = session.run();
    print_report("MoVR (2 reflectors):", report);
    const auto& stats = strategy.manager().stats();
    std::printf("%-22s %d handovers to reflectors, %d back to direct, "
                "%d beam retargets\n",
                "", stats.handovers_to_reflector, stats.handovers_to_direct,
                stats.retargets);
  }

  // --- Baseline: perfectly tracked direct link, no reflectors ----------
  {
    auto scene = make_living_room();
    sim::Simulator simulator;
    baseline::DirectTrackingStrategy strategy{scene};
    vr::PlayerMotion motion{scene.room(), {2.8, 2.6}, 42};
    vr::Session session{simulator, scene, strategy, &motion, &script, config};
    print_report("direct only:", session.run());
  }

  std::printf("\nSame world, same motion, same blockages: the reflectors "
              "absorb what the\ndirect link cannot.\n");
  return 0;
}
