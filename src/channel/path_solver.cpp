#include <channel/path_solver.hpp>

#include <algorithm>
#include <cmath>

#include <geom/segment.hpp>
#include <rf/propagation.hpp>

namespace movr::channel {

namespace {

/// Accumulated obstruction over one straight leg.
rf::Decibels leg_obstruction(const Room& room, geom::Vec2 a, geom::Vec2 b) {
  return total_obstruction(room.obstacles(), geom::Segment{a, b});
}

}  // namespace

PathSolver::PathSolver(const Room& room, Config config)
    : room_{&room}, config_{config} {
  mirrors_.reserve(room.walls().size());
  for (const Wall& wall : room.walls()) {
    mirrors_.push_back(
        Mirror{wall.extent.a, wall.extent.direction().normalized()});
  }
}

std::size_t PathSolver::max_candidates() const {
  const std::size_t w = mirrors_.size();
  std::size_t n = 1;  // LOS
  if (config_.max_bounces >= 1) {
    n += w;
  }
  if (config_.max_bounces >= 2 && w > 1) {
    n += w * (w - 1);
  }
  return n;
}

PathSolver::Candidate PathSolver::los_candidate(geom::Vec2 source,
                                                geom::Vec2 destination) const {
  Candidate c;
  c.bounces = 0;
  c.vertex_count = 2;
  c.vertices[0] = source;
  c.vertices[1] = destination;
  const geom::Vec2 d = destination - source;
  c.length_m = d.norm();
  c.departure = d.heading();
  c.arrival = (-d).heading();
  const rf::Decibels obstruction =
      room_->obstacles().empty() ? rf::Decibels{0.0}
                                 : leg_obstruction(*room_, source, destination);
  const rf::Decibels loss =
      rf::free_space_path_loss(c.length_m, config_.carrier_hz) +
      rf::atmospheric_absorption(c.length_m, config_.carrier_hz) + obstruction;
  c.obstruction_db = obstruction.value();
  c.loss_db = loss.value();
  return c;
}

bool PathSolver::first_order_candidate(std::size_t wall, geom::Vec2 image,
                                       geom::Vec2 source,
                                       geom::Vec2 destination,
                                       bool no_obstacles,
                                       Candidate& out) const {
  const auto& walls = room_->walls();
  const auto hit =
      geom::intersect(geom::Segment{image, destination}, walls[wall].extent);
  if (!hit) {
    return false;
  }
  const geom::Vec2 p = *hit;
  out.bounces = 1;
  out.vertex_count = 3;
  out.vertices[0] = source;
  out.vertices[1] = p;
  out.vertices[2] = destination;
  out.length_m = geom::distance(source, p) + geom::distance(p, destination);
  out.departure = (p - source).heading();
  out.arrival = (p - destination).heading();
  const rf::Decibels obstruction =
      no_obstacles ? rf::Decibels{0.0}
                   : leg_obstruction(*room_, source, p) +
                         leg_obstruction(*room_, p, destination);
  const rf::Decibels loss =
      rf::free_space_path_loss(out.length_m, config_.carrier_hz) +
      rf::atmospheric_absorption(out.length_m, config_.carrier_hz) +
      walls[wall].material.reflection_loss + obstruction;
  out.obstruction_db = obstruction.value();
  out.loss_db = loss.value();
  return true;
}

bool PathSolver::second_order_candidate(std::size_t wall_i, std::size_t wall_j,
                                        geom::Vec2 image1, geom::Vec2 image2,
                                        geom::Vec2 source,
                                        geom::Vec2 destination,
                                        bool no_obstacles,
                                        Candidate& out) const {
  const auto& walls = room_->walls();
  // Unfold back-to-front: last bounce on wall j.
  const auto hit2 =
      geom::intersect(geom::Segment{image2, destination}, walls[wall_j].extent);
  if (!hit2) {
    return false;
  }
  const geom::Vec2 p2 = *hit2;
  const auto hit1 =
      geom::intersect(geom::Segment{image1, p2}, walls[wall_i].extent);
  if (!hit1) {
    return false;
  }
  const geom::Vec2 p1 = *hit1;
  // Degenerate unfoldings (bounce point in a corner) produce zero-length
  // legs; skip them.
  if (geom::distance(p1, p2) < 1e-6 || geom::distance(source, p1) < 1e-6 ||
      geom::distance(p2, destination) < 1e-6) {
    return false;
  }
  out.bounces = 2;
  out.vertex_count = 4;
  out.vertices[0] = source;
  out.vertices[1] = p1;
  out.vertices[2] = p2;
  out.vertices[3] = destination;
  out.length_m = geom::distance(source, p1) + geom::distance(p1, p2) +
                 geom::distance(p2, destination);
  out.departure = (p1 - source).heading();
  out.arrival = (p2 - destination).heading();
  const rf::Decibels obstruction =
      no_obstacles ? rf::Decibels{0.0}
                   : leg_obstruction(*room_, source, p1) +
                         leg_obstruction(*room_, p1, p2) +
                         leg_obstruction(*room_, p2, destination);
  const rf::Decibels loss =
      rf::free_space_path_loss(out.length_m, config_.carrier_hz) +
      rf::atmospheric_absorption(out.length_m, config_.carrier_hz) +
      walls[wall_i].material.reflection_loss +
      walls[wall_j].material.reflection_loss + obstruction;
  out.obstruction_db = obstruction.value();
  out.loss_db = loss.value();
  return true;
}

void PathSolver::collect_candidates(geom::Vec2 source, geom::Vec2 destination,
                                    std::vector<Candidate>& out) const {
  const bool no_obstacles = room_->obstacles().empty();
  const std::size_t nwalls = room_->walls().size();
  out.push_back(los_candidate(source, destination));
  if (config_.max_bounces >= 1) {
    for (std::size_t i = 0; i < nwalls; ++i) {
      Candidate c;
      if (first_order_candidate(i, mirrors_[i].reflect(source), source,
                                destination, no_obstacles, c)) {
        out.push_back(c);
      }
    }
  }
  if (config_.max_bounces >= 2) {
    for (std::size_t i = 0; i < nwalls; ++i) {
      const geom::Vec2 image1 = mirrors_[i].reflect(source);
      for (std::size_t j = 0; j < nwalls; ++j) {
        if (i == j) {
          continue;
        }
        Candidate c;
        if (second_order_candidate(i, j, image1, mirrors_[j].reflect(image1),
                                   source, destination, no_obstacles, c)) {
          out.push_back(c);
        }
      }
    }
  }
}

void PathSolver::order_and_trim(std::vector<Candidate>& candidates) const {
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.loss_db < b.loss_db;
            });
  // Trim everything outside the dynamic range of the strongest path.
  const double cutoff = candidates.front().loss_db +
                        config_.dynamic_range.value();
  candidates.erase(std::remove_if(candidates.begin(), candidates.end(),
                                  [cutoff](const Candidate& c) {
                                    return c.loss_db > cutoff;
                                  }),
                   candidates.end());
}

void PathSolver::solve_candidates(geom::Vec2 source, geom::Vec2 destination,
                                  std::vector<Candidate>& candidates) const {
  candidates.clear();
  collect_candidates(source, destination, candidates);
  order_and_trim(candidates);
}

void PathSolver::materialize(const Candidate& c, Path& out) {
  out.departure_azimuth = c.departure;
  out.arrival_azimuth = c.arrival;
  out.length_m = c.length_m;
  out.loss = rf::Decibels{c.loss_db};
  out.bounces = c.bounces;
  out.obstruction = rf::Decibels{c.obstruction_db};
  out.vertices.assign(c.vertices,
                      c.vertices + static_cast<std::size_t>(c.vertex_count));
}

Path PathSolver::line_of_sight(geom::Vec2 source,
                               geom::Vec2 destination) const {
  Path path;
  materialize(los_candidate(source, destination), path);
  return path;
}

std::vector<Path> PathSolver::solve(geom::Vec2 source,
                                    geom::Vec2 destination) const {
  std::vector<Candidate> candidates;
  candidates.reserve(max_candidates());
  solve_candidates(source, destination, candidates);
  std::vector<Path> paths(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    materialize(candidates[i], paths[i]);
  }
  return paths;
}

void PathSolver::solve_batch(const EndpointBatch& batch, PathBatch& out,
                             BatchWorkspace& ws) const {
  out.clear();
  ws.candidates.reserve(max_candidates());
  for (std::size_t q = 0; q < batch.size(); ++q) {
    solve_candidates(batch.a(q), batch.b(q), ws.candidates);
    for (const Candidate& c : ws.candidates) {
      materialize(c, out.add_path());
    }
    out.end_query();
  }
}

}  // namespace movr::channel
