// The shared arena world of bench/arena and bench/arena_chaos: one room,
// one user placement and one blockage script, so chaos results are
// comparable with the fault-free arena sweep. A header because every
// bench/*.cpp builds into its own binary.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <arena/coordinator.hpp>
#include <log/recorder.hpp>
#include <sim/rng.hpp>
#include <vr/session.hpp>

#include "bench_util.hpp"

namespace movr::bench {

inline constexpr geom::Vec2 kApPositions[4] = {
    {0.4, 0.4}, {7.6, 0.4}, {7.6, 7.6}, {0.4, 7.6}};
inline constexpr double kApOrientationsDeg[4] = {45.0, 135.0, 225.0, 315.0};
inline constexpr geom::Vec2 kCenter{4.0, 4.0};

/// The shared room: 8x8 m, empty floor (blockage comes from the scripts),
/// one reflector at each wall midpoint facing into the room — every
/// quadrant has usable via geometry, so a granted lease is actual relief
/// and arbitration policies differ by allocation, not by which quadrant
/// got lucky. The AP/headset here are prototypes — the coordinator moves
/// each user's clone's AP to its corner and the motion factory places the
/// headset.
inline core::Scene arena_scene() {
  channel::Room room{8.0, 8.0};
  core::ApRadio ap{kApPositions[0], geom::deg_to_rad(kApOrientationsDeg[0])};
  core::HeadsetRadio headset{kCenter, 0.0};
  core::Scene scene{std::move(room), std::move(ap), std::move(headset)};
  scene.add_reflector({4.0, 7.7}, geom::deg_to_rad(265.0));
  scene.add_reflector({7.7, 4.0}, geom::deg_to_rad(175.0));
  scene.add_reflector({0.3, 4.0}, geom::deg_to_rad(355.0));
  scene.add_reflector({4.0, 0.3}, geom::deg_to_rad(85.0));
  return scene;
}

/// Coordinator config for `users` users under the default priority-aging
/// arbiter (bench/arena's arbitration arm).
inline arena::Coordinator::Config arena_config(std::size_t users,
                                               std::uint64_t seed,
                                               double duration_s) {
  arena::Coordinator::Config config;
  config.users = users;
  config.seed = seed;
  config.ap_positions.assign(std::begin(kApPositions), std::end(kApPositions));
  for (const double deg : kApOrientationsDeg) {
    config.ap_orientations.push_back(geom::deg_to_rad(deg));
  }
  // Short terms + fast aging: hand raises block each user for ~0.7 s at a
  // ~29% duty cycle, so reflector demand exceeds supply chronically. A
  // waiter must out-age the holder bonus well inside one raise for the
  // rotation to reach it before its blockage ends.
  config.arbiter.lease_duration = std::chrono::milliseconds{250};
  config.arbiter.aging_per_second = 4.0;
  // Eviction is for persistent burners only: a hand raise collapses a
  // user's PHY rate for ~0.7 s, so give a degraded user 2 s to recover
  // before it can be escalated out of the room.
  config.admission.evict_grace = std::chrono::seconds{2};
  // Skip via-occluded handover candidates: leasing a reflector whose hop a
  // person is standing in burns the Bluetooth wait AND locks out whoever
  // that reflector could actually serve.
  config.link.skip_occluded_candidates = true;
  config.session.duration = sim::from_seconds(duration_s);
  // Compressed stream sized so four users on one AP (the 16-user cell,
  // airtime share 0.25) still fit one link's shared capacity: glitches at
  // the gate point come from blockage and reflector contention, not
  // raw-bitrate saturation. At 32 users (share 0.125) the load does
  // oversubscribe and admission has to shed — that is the stress cell.
  net::TransportConfig transport;
  transport.source.target_mbps = 300.0;
  config.session.transport = transport;
  return config;
}

/// Each user starts in its own AP's quadrant (seeded jitter) and wanders
/// from there — close enough for a solid direct link, spread enough that
/// the diagonal crossings shadow several users at once.
inline arena::Coordinator::MotionFactory motion_factory(std::uint64_t seed) {
  return [seed](std::size_t u,
                const core::Scene& scene) -> std::unique_ptr<vr::Motion> {
    const sim::RngRegistry rngs{seed};
    auto rng = rngs.stream("arena.pos", u);
    const geom::Vec2 ap = kApPositions[u % 4];
    const geom::Vec2 toward = (kCenter - ap).normalized();
    const geom::Vec2 perp{-toward.y, toward.x};
    geom::Vec2 start = ap + toward * uniform(rng, 1.8, 3.2) +
                       perp * uniform(rng, -1.1, 1.1);
    start.x = std::clamp(start.x, 0.9, 7.1);
    start.y = std::clamp(start.y, 0.9, 7.1);
    return std::make_unique<vr::PlayerMotion>(
        scene.room(), start, rngs.stream("arena.motion", u)());
  };
}

/// Staggered per-user hand raises plus two shared diagonal crossings per
/// ~5 s — the crossings put many users' direct paths in shadow in the same
/// window, which is exactly when they all want a reflector.
inline arena::Coordinator::ScriptFactory script_factory(double duration_s) {
  return [duration_s](std::size_t u) {
    const sim::TimePoint end{sim::from_seconds(duration_s)};
    std::vector<vr::BlockageEvent> events =
        vr::periodic_hand_raises(
            sim::TimePoint{sim::from_seconds(
                0.8 + 0.21 * static_cast<double>(u % 7))},
            sim::from_seconds(0.7), sim::from_seconds(2.4), end)
            .events();
    bool flip = false;
    for (double t = 2.0; t + 2.5 < duration_s; t += 5.0) {
      vr::BlockageEvent person;
      person.kind = vr::BlockageEvent::Kind::kPersonCrossing;
      person.start = sim::TimePoint{sim::from_seconds(t)};
      person.duration = sim::from_seconds(2.5);
      person.path_from = flip ? geom::Vec2{7.4, 0.6} : geom::Vec2{0.6, 0.6};
      person.path_to = flip ? geom::Vec2{0.6, 7.4} : geom::Vec2{7.4, 7.4};
      flip = !flip;
      events.push_back(person);
    }
    return vr::BlockageScript{std::move(events)};
  };
}

/// The event-log streams of one coordinator run: the coordinator stream
/// (lease snapshots, revocations, admission transitions) plus optional
/// per-user session + link-manager streams.
struct LogSinks {
  std::unique_ptr<log::Recorder> coordinator;
  std::vector<std::unique_ptr<log::Recorder>> users;

  /// Routes every stream into the coordinator `config`.
  void attach(arena::Coordinator::Config& config) const {
    config.recorder = coordinator.get();
    if (users.empty()) {
      return;
    }
    std::vector<log::Recorder*> streams;
    for (const auto& user : users) {
      streams.push_back(user.get());
    }
    config.user_recorder = [streams](std::size_t u) { return streams[u]; };
  }

  /// Seals every stream (and writes it, when it has a path).
  void close() {
    coordinator->close();
    for (auto& user : users) {
      user->close();
    }
  }
};

/// Opens the coordinator stream plus `users` per-user streams, clocked by
/// `simulator`. With an empty `dir` they stay in memory; otherwise close()
/// writes dir/<stem>coordinator.log and dir/<stem>user<N>.log.
inline LogSinks make_sinks(const std::string& dir, const std::string& stem,
                           const char* bench, std::size_t users,
                           std::uint64_t seed, sim::Simulator& simulator) {
  const auto open = [&](const std::string& name) {
    log::Recorder::Config config;
    if (!dir.empty()) {
      config.path = dir + "/" + stem + name + ".log";
    }
    config.bench = bench;
    config.seed = seed;
    auto recorder = std::make_unique<log::Recorder>(std::move(config));
    recorder->bind_clock(&simulator);
    return recorder;
  };
  LogSinks sinks;
  sinks.coordinator = open("coordinator");
  for (std::size_t u = 0; u < users; ++u) {
    sinks.users.push_back(open("user" + std::to_string(u)));
  }
  return sinks;
}

}  // namespace movr::bench
