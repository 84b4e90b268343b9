// Differential suite for the batch kernel: PathSolver::solve_batch must be
// bit-identical to a scalar solve() loop over the same endpoint pairs —
// same surviving paths, same order, every field equal to the last bit. The
// two share one per-query code path by construction; these tests are the
// tripwire for any future divergence (a reordered sum, a contracted FMA, a
// different trim rule, a stale recycled slot).
#include <channel/path_batch.hpp>
#include <channel/path_solver.hpp>

#include <gtest/gtest.h>

#include <random>
#include <span>
#include <vector>

#include <channel/obstacle.hpp>
#include <channel/room.hpp>

namespace movr::channel {
namespace {

void expect_bit_identical(const std::vector<Path>& scalar,
                          const PathBatch& batch, std::size_t q) {
  const std::span<const Path> batched = batch.query(q);
  ASSERT_EQ(scalar.size(), batched.size());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    EXPECT_EQ(scalar[i].departure_azimuth, batched[i].departure_azimuth);
    EXPECT_EQ(scalar[i].arrival_azimuth, batched[i].arrival_azimuth);
    EXPECT_EQ(scalar[i].length_m, batched[i].length_m);
    EXPECT_EQ(scalar[i].loss.value(), batched[i].loss.value());
    EXPECT_EQ(scalar[i].obstruction.value(), batched[i].obstruction.value());
    EXPECT_EQ(scalar[i].bounces, batched[i].bounces);
    ASSERT_EQ(scalar[i].vertices.size(), batched[i].vertices.size());
    for (std::size_t k = 0; k < scalar[i].vertices.size(); ++k) {
      EXPECT_EQ(scalar[i].vertices[k].x, batched[i].vertices[k].x);
      EXPECT_EQ(scalar[i].vertices[k].y, batched[i].vertices[k].y);
    }
  }
}

void run_differential(const Room& room, const EndpointBatch& endpoints) {
  const PathSolver solver{room};
  PathBatch batch;
  PathSolver::BatchWorkspace ws;
  solver.solve_batch(endpoints, batch, ws);
  ASSERT_EQ(batch.queries(), endpoints.size());
  for (std::size_t q = 0; q < endpoints.size(); ++q) {
    const std::vector<Path> scalar =
        solver.solve(endpoints.a(q), endpoints.b(q));
    expect_bit_identical(scalar, batch, q);
  }
}

TEST(PathBatch, EmptyBatchYieldsNoQueries) {
  const Room room{6.0, 5.0};
  const PathSolver solver{room};
  EndpointBatch endpoints;
  PathBatch batch;
  PathSolver::BatchWorkspace ws;
  solver.solve_batch(endpoints, batch, ws);
  EXPECT_EQ(batch.queries(), 0u);
  EXPECT_EQ(batch.paths(), 0u);
}

TEST(PathBatch, CoverageGridMatchesScalarLoop) {
  // The tentpole workload: a coverage grid's worth of AP->cell pairs in an
  // empty office.
  const Room room = Room::paper_office();
  EndpointBatch endpoints;
  const geom::Vec2 ap{0.5, 0.5};
  for (double y = 0.4; y < room.depth() - 0.4; y += 0.45) {
    for (double x = 0.4; x < room.width() - 0.4; x += 0.45) {
      endpoints.push(ap, {x, y});
    }
  }
  ASSERT_GE(endpoints.size(), 100u);
  run_differential(room, endpoints);
}

TEST(PathBatch, ObstructedRoomMatchesScalarLoop) {
  // Obstacles exercise the per-leg obstruction sums — the most floating-
  // point-sensitive part of the candidate math.
  Room room = Room::paper_office();
  std::mt19937_64 rng{7};
  room.add_obstacle(make_person(room.random_interior_point(rng, 0.8)));
  room.add_obstacle(make_head(room.random_interior_point(rng, 0.8),
                              {1.0, 0.3}));
  room.add_obstacle(make_hand(room.random_interior_point(rng, 0.8),
                              {-0.5, 1.0}));

  EndpointBatch endpoints;
  std::uniform_real_distribution<double> ux{0.2, room.width() - 0.2};
  std::uniform_real_distribution<double> uy{0.2, room.depth() - 0.2};
  for (int i = 0; i < 200; ++i) {
    endpoints.push({ux(rng), uy(rng)}, {ux(rng), uy(rng)});
  }
  run_differential(room, endpoints);
}

TEST(PathBatch, RandomizedEndpointsAcrossRoomShapes) {
  std::mt19937_64 rng{99};
  for (const auto& dims : {std::pair{3.0, 3.0}, std::pair{8.0, 4.0},
                           std::pair{12.0, 9.0}}) {
    Room room{dims.first, dims.second};
    std::uniform_real_distribution<double> ux{0.1, dims.first - 0.1};
    std::uniform_real_distribution<double> uy{0.1, dims.second - 0.1};
    EndpointBatch endpoints;
    for (int i = 0; i < 64; ++i) {
      endpoints.push({ux(rng), uy(rng)}, {ux(rng), uy(rng)});
    }
    run_differential(room, endpoints);
  }
}

TEST(PathBatch, DegenerateEndpointsMatchScalar) {
  // Coincident endpoints and points hugging a wall hit the degenerate-leg
  // guards; the batch path must take exactly the same branches.
  const Room room{5.0, 5.0};
  EndpointBatch endpoints;
  endpoints.push({2.5, 2.5}, {2.5, 2.5});        // zero-length LOS
  endpoints.push({0.01, 2.5}, {4.99, 2.5});      // endpoints at walls
  endpoints.push({2.5, 0.01}, {2.5, 0.01});      // coincident at a wall
  endpoints.push({1.0, 1.0}, {1.0, 4.0});        // axis-aligned
  run_differential(room, endpoints);
}

TEST(PathBatch, WorkspaceReuseAcrossBatchesStaysIdentical) {
  // Recycling one workspace and output batch across calls (the oracle's
  // usage) must not leak state between batches.
  Room room = Room::paper_office();
  std::mt19937_64 rng{41};
  room.add_obstacle(make_person(room.random_interior_point(rng, 0.8)));
  const PathSolver solver{room};
  PathBatch batch;
  PathSolver::BatchWorkspace ws;
  std::uniform_real_distribution<double> ux{0.2, room.width() - 0.2};
  std::uniform_real_distribution<double> uy{0.2, room.depth() - 0.2};
  for (int round = 0; round < 5; ++round) {
    EndpointBatch endpoints;
    for (int i = 0; i < 30 + round * 17; ++i) {
      endpoints.push({ux(rng), uy(rng)}, {ux(rng), uy(rng)});
    }
    solver.solve_batch(endpoints, batch, ws);
    ASSERT_EQ(batch.queries(), endpoints.size());
    for (std::size_t q = 0; q < endpoints.size(); ++q) {
      expect_bit_identical(solver.solve(endpoints.a(q), endpoints.b(q)),
                           batch, q);
    }
  }
}

TEST(PathBatch, ClearKeepsCapacity) {
  Room room{5.0, 4.0};
  const PathSolver solver{room};
  EndpointBatch endpoints;
  for (int i = 0; i < 32; ++i) {
    endpoints.push({1.0 + 0.05 * i, 1.0}, {4.0, 3.0 - 0.05 * i});
  }
  PathBatch batch;
  PathSolver::BatchWorkspace ws;
  solver.solve_batch(endpoints, batch, ws);
  const std::size_t arena_after_first = batch.arena_bytes();
  EXPECT_GT(arena_after_first, 0u);
  solver.solve_batch(endpoints, batch, ws);
  EXPECT_EQ(batch.arena_bytes(), arena_after_first)
      << "second identical solve grew the batch arena";
}

}  // namespace
}  // namespace movr::channel
