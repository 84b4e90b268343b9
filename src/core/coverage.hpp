// Coverage maps: link quality over a grid of headset positions.
//
// The deployment-facing view of the whole system: for every point the
// player could stand, what SNR does the direct beam deliver, what does the
// best reflector deliver, and does the room meet the VR requirement when
// blockage strikes? Feeds the placement planner's intuition, the ASCII
// coverage example, and the placement tests.
#pragma once

#include <vector>

#include <core/channel_oracle.hpp>
#include <core/scene.hpp>
#include <rf/units.hpp>

namespace movr::core {

struct CoverageCell {
  geom::Vec2 position;
  rf::Decibels direct_snr{-300.0};
  /// Best via-reflector SNR over all deployed reflectors (reflectors are
  /// re-aimed at the cell, as the live system would).
  rf::Decibels via_snr{-300.0};
  int best_reflector{-1};  // -1 = none deployed / none usable
};

struct CoverageMap {
  int cells_x{0};
  int cells_y{0};
  std::vector<CoverageCell> cells;  // row-major, y outer
  /// Oracle counters summed over every worker clone that evaluated cells —
  /// the benches report the hit rate the grid workload achieved.
  ChannelOracle::Stats oracle;

  const CoverageCell& at(int ix, int iy) const {
    return cells[static_cast<std::size_t>(iy) * static_cast<std::size_t>(cells_x) +
                 static_cast<std::size_t>(ix)];
  }

  /// Fraction of cells where max(direct, via) >= threshold.
  double covered_fraction(rf::Decibels threshold) const;

  /// Fraction of cells where the *reflector* path alone meets the
  /// threshold — the blockage-resilient share of the room.
  double reflector_covered_fraction(rf::Decibels threshold) const;
};

/// Evaluates the scene over a grid with `resolution_m` spacing, a margin
/// from the walls. Cells are evaluated on per-worker Scene clones — the
/// passed scene itself is never touched — split across `threads` workers
/// (0 = one per hardware thread). Results are identical for every thread
/// count: each cell's evaluation is independent and order-free. Throws
/// std::invalid_argument, before allocating, unless `resolution_m` is finite
/// and > 0, `wall_margin_m` is finite and >= 0, each axis fits between one
/// and INT_MAX cells, and the whole grid fits at most INT_MAX cells.
CoverageMap compute_coverage(const Scene& scene, double resolution_m = 0.25,
                             double wall_margin_m = 0.5,
                             unsigned threads = 0);

/// Renders `map` as ASCII art: '#' covered by direct, '+' covered only via
/// a reflector, '.' below threshold. One row per grid line, north up.
std::string render_coverage(const CoverageMap& map, rf::Decibels threshold);

}  // namespace movr::core
