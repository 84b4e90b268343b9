#include <channel/path_solver.hpp>

#include <cmath>
#include <random>

#include <gtest/gtest.h>

#include <geom/angle.hpp>
#include <rf/propagation.hpp>

namespace movr::channel {
namespace {

using movr::geom::Vec2;

PathSolver::Config cfg(int bounces) {
  PathSolver::Config c;
  c.max_bounces = bounces;
  c.dynamic_range = rf::Decibels{200.0};  // keep everything for inspection
  return c;
}

// The image-method ray-tracing physics: geometry, losses, ordering and
// trims.
TEST(RayTracer, LosGeometry) {
  const Room room{5.0, 5.0};
  const PathSolver solver{room, cfg(0)};
  const Path los = solver.line_of_sight({1.0, 1.0}, {4.0, 1.0});
  EXPECT_EQ(los.bounces, 0);
  EXPECT_DOUBLE_EQ(los.length_m, 3.0);
  EXPECT_NEAR(los.departure_azimuth, 0.0, 1e-12);
  EXPECT_NEAR(std::abs(los.arrival_azimuth), movr::geom::kPi, 1e-12);
  EXPECT_DOUBLE_EQ(los.obstruction.value(), 0.0);
  EXPECT_TRUE(los.is_los());
  EXPECT_FALSE(los.is_blocked());
}

TEST(RayTracer, LosLossIsFspl) {
  const Room room{5.0, 5.0};
  const PathSolver solver{room, cfg(0)};
  const Path los = solver.line_of_sight({1.0, 2.0}, {4.0, 2.0});
  EXPECT_NEAR(los.loss.value(),
              // (plus ~1e-4 dB of atmospheric absorption at 24 GHz)
              rf::free_space_path_loss(3.0, 24.0e9).value(), 0.01);
}

TEST(RayTracer, BlockedLosCarriesObstruction) {
  Room room{5.0, 5.0};
  room.add_obstacle(make_person({2.5, 1.0}));
  const PathSolver solver{room, cfg(0)};
  const Path los = solver.line_of_sight({1.0, 1.0}, {4.0, 1.0});
  EXPECT_TRUE(los.is_blocked());
  EXPECT_NEAR(los.obstruction.value(), kBody.insertion_loss.value(), 1e-9);
}

TEST(RayTracer, FirstOrderReflectionObeysSpecularLaw) {
  const Room room{5.0, 5.0};
  const PathSolver solver{room, cfg(1)};
  const auto paths = solver.solve({1.0, 1.0}, {4.0, 1.0});
  // Find the bounce off the south wall (y = 0).
  const Path* south = nullptr;
  for (const Path& p : paths) {
    if (p.bounces == 1 && p.vertices.size() == 3 &&
        std::abs(p.vertices[1].y) < 1e-9) {
      south = &p;
    }
  }
  ASSERT_NE(south, nullptr);
  // Symmetric geometry: bounce point at x = 2.5.
  EXPECT_NEAR(south->vertices[1].x, 2.5, 1e-9);
  // Angle of incidence equals angle of reflection (measured from wall).
  const Vec2 in = south->vertices[1] - south->vertices[0];
  const Vec2 out = south->vertices[2] - south->vertices[1];
  EXPECT_NEAR(std::abs(in.heading()), std::abs(out.heading()), 1e-9);
  // Unfolded length: image at (1, -1) to (4, 1): sqrt(9 + 4).
  EXPECT_NEAR(south->length_m, std::sqrt(13.0), 1e-9);
}

TEST(RayTracer, ReflectionLossesCharged) {
  const Room room{5.0, 5.0};  // drywall: 11 dB per bounce
  const PathSolver solver{room, cfg(2)};
  const auto paths = solver.solve({1.0, 2.0}, {4.0, 2.5});
  for (const Path& p : paths) {
    const double fspl =
        rf::free_space_path_loss(p.length_m, 24.0e9).value();
    const double extra = p.loss.value() - fspl - p.obstruction.value();
    EXPECT_NEAR(extra, 11.0 * p.bounces, 0.01) << "bounces " << p.bounces;
  }
}

TEST(RayTracer, PathCountsForRectangle) {
  const Room room{5.0, 5.0};
  const PathSolver solver{room, cfg(2)};
  const auto paths = solver.solve({1.3, 2.1}, {3.9, 3.2});
  int los = 0;
  int first = 0;
  int second = 0;
  for (const Path& p : paths) {
    los += p.bounces == 0;
    first += p.bounces == 1;
    second += p.bounces == 2;
  }
  EXPECT_EQ(los, 1);
  EXPECT_EQ(first, 4);  // one per wall for interior endpoints
  EXPECT_GE(second, 4);  // wall pairs with valid unfoldings
}

TEST(RayTracer, PathsSortedStrongestFirst) {
  const Room room{5.0, 5.0};
  const PathSolver solver{room, cfg(2)};
  const auto paths = solver.solve({1.0, 1.0}, {4.0, 3.0});
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_LE(paths[i - 1].loss.value(), paths[i].loss.value());
  }
  EXPECT_TRUE(paths.front().is_los());
}

TEST(RayTracer, DynamicRangeTrimsWeakPaths) {
  const Room room{5.0, 5.0};
  PathSolver::Config tight = cfg(2);
  tight.dynamic_range = rf::Decibels{10.0};
  const PathSolver solver{room, tight};
  const auto paths = solver.solve({1.0, 1.0}, {4.0, 3.0});
  const double best = paths.front().loss.value();
  for (const Path& p : paths) {
    EXPECT_LE(p.loss.value(), best + 10.0 + 1e-9);
  }
}

TEST(RayTracer, ObstacleShadowsReflectedLeg) {
  Room room{5.0, 5.0};
  // Blocker between the south-wall bounce point (2.5, 0) and the receiver.
  room.add_obstacle(make_person({3.25, 0.5}));
  const PathSolver solver{room, cfg(1)};
  const auto paths = solver.solve({1.0, 1.0}, {4.0, 1.0});
  const Path* south = nullptr;
  for (const Path& p : paths) {
    if (p.bounces == 1 && std::abs(p.vertices[1].y) < 1e-9) {
      south = &p;
    }
  }
  ASSERT_NE(south, nullptr);
  EXPECT_GT(south->obstruction.value(), 20.0);
}

TEST(RayTracer, ArrivalAzimuthPointsBackAlongRay) {
  const Room room{5.0, 5.0};
  const PathSolver solver{room, cfg(1)};
  const auto paths = solver.solve({1.0, 1.0}, {4.0, 1.0});
  for (const Path& p : paths) {
    const Vec2 last_leg = p.vertices[p.vertices.size() - 2] - p.vertices.back();
    EXPECT_NEAR(movr::geom::angular_distance(p.arrival_azimuth,
                                             last_leg.heading()),
                0.0, 1e-9);
  }
}

TEST(RayTracer, NlosBestPathRoughly16DbBelowLos) {
  // The paper's headline NLOS number: best wall reflection lands ~16 dB
  // below LOS (FSPL growth + reflection loss).
  const Room room{5.0, 5.0};
  const PathSolver solver{room, cfg(2)};
  const auto paths = solver.solve({0.5, 2.5}, {4.0, 2.5});
  const double los_loss = paths.front().loss.value();
  double best_nlos = 1e9;
  for (const Path& p : paths) {
    if (p.bounces > 0) {
      best_nlos = std::min(best_nlos, p.loss.value());
    }
  }
  EXPECT_GT(best_nlos - los_loss, 10.0);
  EXPECT_LT(best_nlos - los_loss, 22.0);
}

TEST(PathSolver, LongLivedSolverMatchesFreshSolverBitForBit) {
  // The image tree is built once and reused across calls; a solver built
  // for each call must give the same answer to the last bit. Random
  // endpoint pairs over the paper room.
  const Room room = Room::paper_office();
  const PathSolver solver{room};
  std::mt19937_64 rng{11};
  for (int i = 0; i < 50; ++i) {
    const geom::Vec2 a = room.random_interior_point(rng, 0.3);
    const geom::Vec2 b = room.random_interior_point(rng, 0.3);
    const auto solved = solver.solve(a, b);
    const auto fresh = PathSolver{room}.solve(a, b);
    ASSERT_EQ(solved.size(), fresh.size());
    for (std::size_t p = 0; p < solved.size(); ++p) {
      EXPECT_EQ(solved[p].loss.value(), fresh[p].loss.value());
      EXPECT_EQ(solved[p].length_m, fresh[p].length_m);
      EXPECT_EQ(solved[p].departure_azimuth, fresh[p].departure_azimuth);
      EXPECT_EQ(solved[p].arrival_azimuth, fresh[p].arrival_azimuth);
      EXPECT_EQ(solved[p].bounces, fresh[p].bounces);
    }
  }
}

TEST(PathSolver, NoObstacleShortCircuitIsExact) {
  // An obstacle tucked in a corner, far off every leg, must attenuate
  // nothing — the empty-room fast path and the validating slow path have
  // to agree exactly.
  Room empty{5.0, 5.0};
  Room with_far_obstacle{5.0, 5.0};
  with_far_obstacle.add_obstacle(
      {geom::Circle{{0.05, 0.05}, 0.01}, kFurniture, "dust"});
  const PathSolver fast{empty};
  const PathSolver slow{with_far_obstacle};
  const auto a = fast.solve({1.0, 2.0}, {4.0, 3.0});
  const auto b = slow.solve({1.0, 2.0}, {4.0, 3.0});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    EXPECT_EQ(a[p].loss.value(), b[p].loss.value());
    EXPECT_EQ(a[p].obstruction.value(), 0.0);
    EXPECT_EQ(b[p].obstruction.value(), 0.0);
  }
}

TEST(PathSolver, ObstacleValidationUsesCurrentObstacles) {
  Room room{5.0, 5.0};
  const PathSolver solver{room};
  const auto clear = solver.line_of_sight({1.0, 2.5}, {4.0, 2.5});
  EXPECT_EQ(clear.obstruction.value(), 0.0);
  room.add_obstacle({geom::Circle{{2.5, 2.5}, 0.3}, kBody, "person"});
  // No rebuild: the cached images validate against the obstacle that was
  // added after construction.
  const auto blocked = solver.line_of_sight({1.0, 2.5}, {4.0, 2.5});
  EXPECT_GT(blocked.obstruction.value(), 10.0);
}

TEST(PathSolver, WallMaterialReadLiveAtSolveTime) {
  Room room{5.0, 5.0};
  const PathSolver solver{room};
  const auto drywall = solver.solve({1.0, 1.0}, {4.0, 1.0});
  room.set_wall_material("south", kMetal);
  const auto metal = solver.solve({1.0, 1.0}, {4.0, 1.0});
  ASSERT_EQ(drywall.size(), metal.size());
  // The south-wall bounce got stronger; find a first-order path whose loss
  // changed (the LOS one must not change).
  bool some_path_changed = false;
  for (std::size_t p = 0; p < drywall.size(); ++p) {
    if (drywall[p].bounces == 0) {
      EXPECT_EQ(drywall[p].loss.value(), metal[p].loss.value());
    } else if (drywall[p].loss.value() != metal[p].loss.value()) {
      some_path_changed = true;
    }
  }
  EXPECT_TRUE(some_path_changed);
}

TEST(PathSolver, MaxBouncesRespected) {
  const Room room{5.0, 5.0};
  const PathSolver los_only{room, {24.0e9, 0, rf::Decibels{200.0}}};
  EXPECT_EQ(los_only.solve({1.0, 1.0}, {4.0, 4.0}).size(), 1u);
  const PathSolver first_order{room, {24.0e9, 1, rf::Decibels{200.0}}};
  for (const auto& path : first_order.solve({1.0, 1.0}, {4.0, 4.0})) {
    EXPECT_LE(path.bounces, 1);
  }
}

}  // namespace
}  // namespace movr::channel
