// Reflector placement planning.
//
// The paper installs reflectors "by sticking them to the walls" and leaves
// placement to the user. This planner makes that step principled: it
// enumerates wall mounts, Monte-Carlo-samples player positions and blockage
// events, and greedily picks the mounts that minimise the fraction of
// events left without a VR-grade link. Used by the placement ablation and
// the examples/placement_planner tool.
#pragma once

#include <random>
#include <vector>

#include <core/scene.hpp>
#include <geom/vec2.hpp>
#include <rf/units.hpp>

namespace movr::core {

struct PlacementCandidate {
  geom::Vec2 position;
  double orientation;  // boresight, global radians (into the room)
};

struct PlacementPlan {
  std::vector<PlacementCandidate> chosen;
  /// Outage fraction after each greedy addition: [no reflectors, +1, +2...].
  std::vector<double> outage_curve;
};

class PlacementPlanner {
 public:
  struct Config {
    /// Candidate mounts are spaced this far apart along each wall.
    double mount_spacing_m{1.0};
    /// Clearance from room corners for candidate mounts.
    double corner_margin_m{0.6};
    /// Monte-Carlo blockage events evaluated per candidate set.
    int trials{120};
    /// Stop adding reflectors when outage falls below this, or when
    /// `max_reflectors` are placed.
    double target_outage{0.02};
    int max_reflectors{3};
    /// SNR a link must reach to count as covered.
    rf::Decibels required_snr{19.0};
    /// Worker threads for the Monte-Carlo evaluation (0 = one per hardware
    /// thread). Every trial draws from its own RNG stream, so plans are
    /// identical for every thread count.
    unsigned threads{0};
  };

  /// Throws std::invalid_argument unless `trials` >= 1, `mount_spacing_m`
  /// is finite and > 0, and `corner_margin_m` is finite and >= 0.
  PlacementPlanner(const Config& config, std::uint64_t seed);

  /// Candidate mounts along the walls of `room` (excluding the AP's wall
  /// neighbourhood — a reflector next to the AP adds nothing).
  std::vector<PlacementCandidate> candidates(const channel::Room& room,
                                             geom::Vec2 ap_position) const;

  /// Greedy plan for a room with the AP at `ap_position`. Throws
  /// std::invalid_argument when a side is under 1.6 m: headset positions
  /// are drawn 0.8 m from every wall.
  PlacementPlan plan(const channel::Room& room, geom::Vec2 ap_position) const;

 private:
  Config config_;
  std::uint64_t seed_;
};

}  // namespace movr::core
