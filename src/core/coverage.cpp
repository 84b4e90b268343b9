#include <core/coverage.hpp>

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>

#include <core/parallel_for.hpp>

namespace movr::core {

namespace {

/// Cells along a wall of `length_m`: one at the margin, then one per whole
/// `resolution_m` step until the opposite margin. Throws std::invalid_argument
/// when no cell fits or the count does not fit an int.
int axis_cells(double length_m, double resolution_m, double wall_margin_m) {
  const double steps = (length_m - 2.0 * wall_margin_m) / resolution_m;
  if (!(steps >= 0.0 && steps < std::numeric_limits<int>::max())) {
    throw std::invalid_argument{
        "compute_coverage: the grid must fit at least one cell and at most "
        "INT_MAX per axis"};
  }
  return static_cast<int>(steps) + 1;
}

/// One cell against one (worker-local) scene: aim both ends at the cell,
/// read the direct SNR, then try every reflector re-aimed at the cell.
CoverageCell evaluate_cell(Scene& scene, geom::Vec2 position) {
  CoverageCell cell;
  cell.position = position;
  scene.headset().node().set_position(position);

  // Direct link, both ends aimed.
  scene.aim_direct();
  cell.direct_snr = scene.direct_snr();

  // Best reflector, re-aimed at the cell.
  for (std::size_t r = 0; r < scene.reflector_count(); ++r) {
    auto& reflector = scene.reflector(r);
    scene.aim_via(reflector);
    reflector.front_end().steer_tx(
        scene.true_reflector_angle_to_headset(reflector));
    const auto via = scene.via_snr(reflector);
    if (via.usable && via.snr > cell.via_snr) {
      cell.via_snr = via.snr;
      cell.best_reflector = static_cast<int>(r);
    }
  }
  return cell;
}

}  // namespace

double CoverageMap::covered_fraction(rf::Decibels threshold) const {
  if (cells.empty()) {
    return 0.0;
  }
  const auto covered = std::count_if(
      cells.begin(), cells.end(), [threshold](const CoverageCell& c) {
        return std::max(c.direct_snr, c.via_snr) >= threshold;
      });
  return static_cast<double>(covered) / static_cast<double>(cells.size());
}

double CoverageMap::reflector_covered_fraction(rf::Decibels threshold) const {
  if (cells.empty()) {
    return 0.0;
  }
  const auto covered = std::count_if(
      cells.begin(), cells.end(),
      [threshold](const CoverageCell& c) { return c.via_snr >= threshold; });
  return static_cast<double>(covered) / static_cast<double>(cells.size());
}

CoverageMap compute_coverage(const Scene& scene, double resolution_m,
                             double wall_margin_m, unsigned threads) {
  if (!std::isfinite(resolution_m) || resolution_m <= 0.0) {
    throw std::invalid_argument{
        "compute_coverage: resolution_m must be finite and > 0"};
  }
  if (!std::isfinite(wall_margin_m) || wall_margin_m < 0.0) {
    throw std::invalid_argument{
        "compute_coverage: wall_margin_m must be finite and >= 0"};
  }
  CoverageMap map;
  map.cells_x = axis_cells(scene.room().width(), resolution_m, wall_margin_m);
  map.cells_y = axis_cells(scene.room().depth(), resolution_m, wall_margin_m);
  const std::size_t total = static_cast<std::size_t>(map.cells_x) *
                            static_cast<std::size_t>(map.cells_y);
  if (total > static_cast<std::size_t>(std::numeric_limits<int>::max())) {
    throw std::invalid_argument{
        "compute_coverage: the grid must fit at most INT_MAX cells"};
  }
  map.cells.resize(total);

  const auto cell_position = [&](std::size_t i) -> geom::Vec2 {
    const int ix = static_cast<int>(i % static_cast<std::size_t>(map.cells_x));
    const int iy = static_cast<int>(i / static_cast<std::size_t>(map.cells_x));
    return {wall_margin_m + ix * resolution_m,
            wall_margin_m + iy * resolution_m};
  };

  std::mutex stats_mutex;
  parallel_for(total, threads, [&](std::size_t begin, std::size_t end) {
    // Each worker steers its own clone; cells are disjoint vector slots.
    Scene local = scene.clone();
    for (std::size_t i = begin; i < end; ++i) {
      map.cells[i] = evaluate_cell(local, cell_position(i));
    }
    const auto stats = local.oracle_stats();
    const std::scoped_lock lock{stats_mutex};
    map.oracle += stats;
  });
  return map;
}

std::string render_coverage(const CoverageMap& map, rf::Decibels threshold) {
  std::string out;
  out.reserve(static_cast<std::size_t>(map.cells_y) *
              (static_cast<std::size_t>(map.cells_x) + 1));
  for (int iy = map.cells_y - 1; iy >= 0; --iy) {  // north up
    for (int ix = 0; ix < map.cells_x; ++ix) {
      const CoverageCell& cell = map.at(ix, iy);
      if (cell.direct_snr >= threshold) {
        out += '#';
      } else if (cell.via_snr >= threshold) {
        out += '+';
      } else {
        out += '.';
      }
    }
    out += '\n';
  }
  return out;
}

}  // namespace movr::core
