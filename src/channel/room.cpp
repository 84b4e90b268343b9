#include <channel/room.hpp>

#include <algorithm>
#include <stdexcept>

namespace movr::channel {

Room::Room(double width_m, double depth_m, SurfaceMaterial wall_material)
    : width_{width_m}, depth_{depth_m} {
  if (width_m <= 0.0 || depth_m <= 0.0) {
    throw std::invalid_argument{"Room: dimensions must be positive"};
  }
  const geom::Vec2 sw{0.0, 0.0};
  const geom::Vec2 se{width_m, 0.0};
  const geom::Vec2 ne{width_m, depth_m};
  const geom::Vec2 nw{0.0, depth_m};
  walls_ = {
      Wall{{sw, se}, wall_material, "south"},
      Wall{{se, ne}, wall_material, "east"},
      Wall{{ne, nw}, wall_material, "north"},
      Wall{{nw, sw}, wall_material, "west"},
  };
}

Room Room::paper_office() {
  Room room{5.0, 5.0, kDrywall};
  // "Standard furniture": a desk against the east wall and a cabinet near
  // the north wall. They shadow some wall-reflection geometries, like real
  // furniture does in the paper's NLOS sweeps.
  room.add_obstacle(
      Obstacle{geom::Circle{{4.6, 2.2}, 0.35}, kFurniture, "desk"});
  room.add_obstacle(
      Obstacle{geom::Circle{{1.8, 4.65}, 0.3}, kFurniture, "cabinet"});
  return room;
}

void Room::set_wall_material(const std::string& wall_label,
                             SurfaceMaterial material) {
  for (Wall& wall : walls_) {
    if (wall.label == wall_label) {
      wall.material = material;
      ++revision_;
      return;
    }
  }
  throw std::invalid_argument{"Room: no wall named " + wall_label};
}

void Room::add_obstacle(Obstacle obstacle) {
  obstacles_.push_back(std::move(obstacle));
  ++revision_;
}

void Room::remove_obstacles(const std::string& label) {
  const auto removed = std::remove_if(
      obstacles_.begin(), obstacles_.end(),
      [&](const Obstacle& o) { return o.label == label; });
  if (removed != obstacles_.end()) {
    obstacles_.erase(removed, obstacles_.end());
    ++revision_;
  }
}

bool Room::contains(geom::Vec2 p, double margin) const {
  return p.x >= margin && p.x <= width_ - margin && p.y >= margin &&
         p.y <= depth_ - margin;
}

}  // namespace movr::channel
