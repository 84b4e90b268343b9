// The experiment room: a rectangle of reflecting walls plus a mutable set
// of obstacles. The paper's testbed is a 5x5 m office with standard
// furniture; Room::paper_office() reproduces it.
#pragma once

#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include <channel/material.hpp>
#include <channel/obstacle.hpp>
#include <geom/segment.hpp>
#include <geom/vec2.hpp>

namespace movr::channel {

struct Wall {
  geom::Segment extent;
  SurfaceMaterial material{kDrywall};
  std::string label;
};

class Room {
 public:
  /// An empty rectangular room with corners (0,0) and (width, depth).
  Room(double width_m, double depth_m, SurfaceMaterial walls = kDrywall);

  /// The paper's 5x5 m office, with a couple of furniture blockers along
  /// the walls ("standard furniture", Section 5).
  static Room paper_office();

  double width() const { return width_; }
  double depth() const { return depth_; }

  const std::vector<Wall>& walls() const { return walls_; }
  const std::vector<Obstacle>& obstacles() const { return obstacles_; }

  /// Monotonic mutation counter: every obstacle or wall-material change
  /// bumps it. Path caches (core::ChannelOracle) key their entries on this
  /// revision, so a stale cache can never survive a room edit.
  std::uint64_t revision() const { return revision_; }

  /// Re-materials one wall ("south", "east", "north", "west") — e.g. a
  /// whiteboard or metal panel on one wall changes the NLOS story (cf. the
  /// data-center "mirror on the ceiling" the paper contrasts itself with).
  void set_wall_material(const std::string& wall_label,
                         SurfaceMaterial material);

  void add_obstacle(Obstacle obstacle);
  /// Removes obstacles whose label matches (e.g. drop the "hand" blocker
  /// when the player lowers her arm).
  void remove_obstacles(const std::string& label);

  bool contains(geom::Vec2 p, double margin = 0.0) const;

  /// Uniformly random interior point at least `margin` from every wall.
  /// Throws std::invalid_argument unless 0 <= `margin` <= half of each
  /// side: a wider margin leaves no interior to draw from.
  template <typename Rng>
  geom::Vec2 random_interior_point(Rng& rng, double margin = 0.5) const {
    if (!(margin >= 0.0 && 2.0 * margin <= width_ && 2.0 * margin <= depth_)) {
      throw std::invalid_argument{
          "Room: random_interior_point margin leaves no interior"};
    }
    std::uniform_real_distribution<double> ux{margin, width_ - margin};
    std::uniform_real_distribution<double> uy{margin, depth_ - margin};
    return {ux(rng), uy(rng)};
  }

 private:
  double width_;
  double depth_;
  std::vector<Wall> walls_;
  std::vector<Obstacle> obstacles_;
  std::uint64_t revision_{0};
};

}  // namespace movr::channel
