// Randomised property tests: invariants that must hold for ANY geometry,
// not just the hand-picked fixtures — seeded and deterministic.
#include <gtest/gtest.h>

#include <channel/path_solver.hpp>
#include <channel/room.hpp>
#include <geom/angle.hpp>
#include <hw/front_end.hpp>
#include <hw/stability.hpp>
#include <phy/link.hpp>
#include <sim/rng.hpp>

namespace movr {
namespace {

using geom::Vec2;

class RayTracerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RayTracerFuzz, PathInvariantsHold) {
  sim::RngRegistry rngs{GetParam()};
  auto rng = rngs.stream("fuzz");
  std::uniform_real_distribution<double> dim{3.0, 9.0};
  channel::Room room{dim(rng), dim(rng)};
  std::uniform_int_distribution<int> n_obstacles{0, 3};
  const int obstacles = n_obstacles(rng);
  for (int i = 0; i < obstacles; ++i) {
    room.add_obstacle(channel::make_person(room.random_interior_point(rng, 0.4)));
  }
  const channel::PathSolver solver{room};
  for (int trial = 0; trial < 8; ++trial) {
    const Vec2 a = room.random_interior_point(rng, 0.3);
    const Vec2 b = room.random_interior_point(rng, 0.3);
    if (geom::distance(a, b) < 0.1) {
      continue;
    }
    const auto paths = solver.solve(a, b);
    ASSERT_FALSE(paths.empty());
    double prev_loss = -1.0;
    for (const auto& p : paths) {
      // Sorted by loss, all losses positive and finite.
      EXPECT_GE(p.loss.value(), prev_loss);
      prev_loss = p.loss.value();
      EXPECT_GT(p.loss.value(), 0.0);
      EXPECT_LT(p.loss.value(), 250.0);
      // Geometric length at least the straight-line distance.
      EXPECT_GE(p.length_m, geom::distance(a, b) - 1e-9);
      // Vertices consistent with the bounce count.
      EXPECT_EQ(p.vertices.size(), static_cast<std::size_t>(p.bounces) + 2);
      EXPECT_EQ(p.vertices.front(), a);
      EXPECT_EQ(p.vertices.back(), b);
      // Length equals the vertex-chain length.
      double chain = 0.0;
      for (std::size_t i = 1; i < p.vertices.size(); ++i) {
        chain += geom::distance(p.vertices[i - 1], p.vertices[i]);
      }
      EXPECT_NEAR(chain, p.length_m, 1e-9);
      // Departure/arrival azimuths match the first/last legs.
      EXPECT_NEAR(geom::angular_distance(
                      p.departure_azimuth,
                      (p.vertices[1] - p.vertices[0]).heading()),
                  0.0, 1e-9);
      EXPECT_NEAR(geom::angular_distance(
                      p.arrival_azimuth,
                      (p.vertices[p.vertices.size() - 2] - p.vertices.back())
                          .heading()),
                  0.0, 1e-9);
      // Obstruction is part of the loss, never negative.
      EXPECT_GE(p.obstruction.value(), 0.0);
      EXPECT_GE(p.loss.value(), p.obstruction.value());
      // Bounce points lie on walls.
      for (std::size_t i = 1; i + 1 < p.vertices.size(); ++i) {
        bool on_wall = false;
        for (const auto& wall : room.walls()) {
          on_wall = on_wall || geom::contains(wall.extent, p.vertices[i], 1e-6);
        }
        EXPECT_TRUE(on_wall) << p.vertices[i];
      }
    }
  }
}

TEST_P(RayTracerFuzz, ReciprocityOfLoss) {
  // Swapping endpoints preserves the loss multiset (antenna-free channel
  // reciprocity).
  sim::RngRegistry rngs{GetParam()};
  auto rng = rngs.stream("recip");
  channel::Room room{5.0, 5.0};
  const Vec2 a = room.random_interior_point(rng, 0.4);
  const Vec2 b = room.random_interior_point(rng, 0.4);
  const channel::PathSolver solver{room};
  auto forward = solver.solve(a, b);
  auto backward = solver.solve(b, a);
  ASSERT_EQ(forward.size(), backward.size());
  for (std::size_t i = 0; i < forward.size(); ++i) {
    EXPECT_NEAR(forward[i].loss.value(), backward[i].loss.value(), 1e-6);
    EXPECT_NEAR(forward[i].length_m, backward[i].length_m, 1e-9);
  }
}

TEST_P(RayTracerFuzz, StabilityCriterionMatchesProcess) {
  // For random beam pairs and gain codes, the front end's stable flag must
  // agree exactly with the G < L criterion.
  sim::RngRegistry rngs{GetParam()};
  auto rng = rngs.stream("stab");
  hw::ReflectorFrontEnd::Config config;
  std::uniform_real_distribution<double> coupling{-20.0, -4.0};
  config.leakage.board_coupling = rf::Decibels{coupling(rng)};
  hw::ReflectorFrontEnd fe{config};
  std::uniform_real_distribution<double> angle{geom::deg_to_rad(40.0),
                                               geom::deg_to_rad(140.0)};
  std::uniform_int_distribution<std::uint32_t> code{0, fe.max_gain_code()};
  for (int trial = 0; trial < 20; ++trial) {
    fe.steer_tx(angle(rng));
    fe.steer_rx(angle(rng));
    fe.set_gain_code(code(rng));
    const auto state = fe.process(rf::DbmPower{-50.0});
    EXPECT_EQ(state.stable,
              hw::is_loop_stable(fe.amplifier_gain(), state.isolation));
    if (state.stable) {
      // Output power is finite and consistent with the effective gain.
      EXPECT_NEAR(state.output.value(),
                  -50.0 + state.effective_gain.value(), 1e-9);
    }
  }
}

TEST_P(RayTracerFuzz, LinkSnrFiniteForRandomSteering) {
  sim::RngRegistry rngs{GetParam()};
  auto rng = rngs.stream("link");
  channel::Room room{5.0, 5.0};
  const Vec2 a = room.random_interior_point(rng, 0.4);
  const Vec2 b = room.random_interior_point(rng, 0.4);
  const channel::PathSolver solver{room};
  const auto paths = solver.solve(a, b);
  std::uniform_real_distribution<double> az{0.0, geom::kTwoPi};
  phy::RadioNode tx{a, az(rng)};
  phy::RadioNode rx{b, az(rng)};
  const phy::LinkConfig config;
  for (int trial = 0; trial < 10; ++trial) {
    tx.array().steer(az(rng));
    rx.array().steer(az(rng));
    const double snr = phy::link_snr(tx, rx, paths, config).value();
    EXPECT_TRUE(std::isfinite(snr));
    EXPECT_LT(snr, 80.0);   // no free energy
    EXPECT_GT(snr, -300.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RayTracerFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace movr
