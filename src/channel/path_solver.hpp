// Precomputed image-method path solver.
//
// mmWave propagation indoors is quasi-optical: the energy that matters
// arrives over the LOS ray and a handful of specular wall bounces; diffuse
// scattering is tens of dB down. The solver enumerates the LOS path and all
// first- and second-order wall images, validates each bounce point against
// the wall extents, and charges free-space loss over the unfolded length,
// reflection loss per bounce and obstruction loss per leg.
//
// The specular image tree (one mirror image per wall, one composed image per
// ordered wall pair) depends only on the wall geometry, which is fixed at
// Room construction. The solver builds that tree once, in its constructor,
// and answers solve(src, dst) by unfolding the cached images against the
// *current* obstacle set and wall materials — so moving a blocker or
// re-materialling a wall takes effect on the very next call, with no
// rebuild. When the room has no obstacles the per-leg obstruction checks
// are skipped entirely. The solver reads the Room it was built from through
// a pointer, so that Room must outlive it at the same address (core::Scene
// keeps its Room on the heap for this).
//
// Two query shapes, one per-query code path:
//  - solve(src, dst): returns a fresh std::vector<Path>.
//  - solve_batch(batch, out, ws): many endpoint pairs at once, answered into
//    the caller's recycled PathBatch slots. Each query runs the same
//    collect / order-and-trim / materialize sequence as solve(), which is
//    what makes the batch results bit-identical to a scalar loop.
//
// Thread-safety: solve(), solve_batch() and line_of_sight() are const and
// touch no mutable solver state; any number of threads may query one solver
// concurrently as long as nobody mutates the bound Room at the same time and
// each thread brings its own BatchWorkspace.
#pragma once

#include <cstddef>
#include <vector>

#include <channel/path.hpp>
#include <channel/path_batch.hpp>
#include <channel/room.hpp>
#include <rf/units.hpp>

namespace movr::channel {

class PathSolver {
 public:
  struct Config {
    double carrier_hz{24.0e9};
    int max_bounces{2};
    /// Paths weaker than (strongest - dynamic_range) are dropped.
    rf::Decibels dynamic_range{60.0};
  };

  /// One path candidate before sort/trim. Fixed-size vertex storage (LOS=2,
  /// first order=3, second order=4) keeps candidate evaluation heap-free.
  struct Candidate {
    double departure{0.0};
    double arrival{0.0};
    double length_m{0.0};
    double loss_db{0.0};
    double obstruction_db{0.0};
    int bounces{0};
    int vertex_count{0};
    geom::Vec2 vertices[PathBatch::kMaxVertices];
  };

  /// Reusable scratch for solve_batch. Owned by the caller — one per worker
  /// thread — and recycled across calls: capacity is kept, so a warmed batch
  /// solve performs zero heap allocations of its own.
  struct BatchWorkspace {
    std::vector<Candidate> candidates;

    /// Bytes of backing storage currently owned (capacity, not size).
    std::size_t arena_bytes() const {
      return candidates.capacity() * sizeof(Candidate);
    }
  };

  explicit PathSolver(const Room& room) : PathSolver{room, Config{}} {}
  PathSolver(const Room& room, Config config);

  const Room& room() const { return *room_; }
  const Config& config() const { return config_; }

  /// All propagation paths from `source` to `destination`, strongest first.
  std::vector<Path> solve(geom::Vec2 source, geom::Vec2 destination) const;

  /// Batched solve: answers every query into `out` (which is cleared
  /// first), strongest first within each query. Bit-identical to calling
  /// solve() per endpoint pair.
  void solve_batch(const EndpointBatch& batch, PathBatch& out,
                   BatchWorkspace& ws) const;

  /// Just the LOS path (present even when obstructed — its `obstruction`
  /// field says by how much).
  Path line_of_sight(geom::Vec2 source, geom::Vec2 destination) const;

  /// Upper bound on candidates per query (LOS + per-wall + per-wall-pair),
  /// for sizing caller-side reserves.
  std::size_t max_candidates() const;

 private:
  /// Precomputed mirror line of one wall: anchor + unit direction, so the
  /// image-source transform costs one dot product instead of a norm.
  /// reflect() matches geom::mirror_across bit-for-bit.
  struct Mirror {
    geom::Vec2 anchor;
    geom::Vec2 direction;  // unit vector along the wall

    geom::Vec2 reflect(geom::Vec2 p) const {
      const geom::Vec2 rel = p - anchor;
      const geom::Vec2 proj = direction * rel.dot(direction);
      const geom::Vec2 perp = rel - proj;
      return p - perp * 2.0;
    }
  };

  const Room* room_;
  Config config_;
  std::vector<Mirror> mirrors_;  // one per wall, same indexing as walls()

  // Candidate evaluation — the single source of truth for path math.
  Candidate los_candidate(geom::Vec2 source, geom::Vec2 destination) const;
  bool first_order_candidate(std::size_t wall, geom::Vec2 image,
                             geom::Vec2 source, geom::Vec2 destination,
                             bool no_obstacles, Candidate& out) const;
  bool second_order_candidate(std::size_t wall_i, std::size_t wall_j,
                              geom::Vec2 image1, geom::Vec2 image2,
                              geom::Vec2 source, geom::Vec2 destination,
                              bool no_obstacles, Candidate& out) const;
  void collect_candidates(geom::Vec2 source, geom::Vec2 destination,
                          std::vector<Candidate>& out) const;
  /// Sort strongest-first, then drop candidates outside the dynamic range of
  /// the strongest.
  void order_and_trim(std::vector<Candidate>& candidates) const;
  /// The per-query code path both solve() and solve_batch() run: leaves
  /// the surviving candidates, strongest first, in `candidates`.
  void solve_candidates(geom::Vec2 source, geom::Vec2 destination,
                        std::vector<Candidate>& candidates) const;
  /// Overwrites every field of `out` with `c`.
  static void materialize(const Candidate& c, Path& out);
};

}  // namespace movr::channel
