#include <core/placement.hpp>

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include <geom/angle.hpp>

namespace movr::core {
namespace {

PlacementPlanner::Config fast_config() {
  PlacementPlanner::Config config;
  config.trials = 30;
  config.mount_spacing_m = 1.6;
  config.max_reflectors = 2;
  return config;
}

TEST(Placement, RejectsBadConfig) {
  // trials <= 0 planned a NaN outage or hung, and a spacing <= 0 never
  // finished candidates(); non-finite values and a negative margin are
  // out of range too.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const int trials : {0, -1}) {
    PlacementPlanner::Config config = fast_config();
    config.trials = trials;
    EXPECT_THROW((PlacementPlanner{config, 1}), std::invalid_argument)
        << "trials " << trials;
  }
  for (const double spacing : {0.0, -1.0, nan, inf}) {
    PlacementPlanner::Config config = fast_config();
    config.mount_spacing_m = spacing;
    EXPECT_THROW((PlacementPlanner{config, 1}), std::invalid_argument)
        << "mount_spacing_m " << spacing;
  }
  for (const double margin : {-0.1, nan, inf}) {
    PlacementPlanner::Config config = fast_config();
    config.corner_margin_m = margin;
    EXPECT_THROW((PlacementPlanner{config, 1}), std::invalid_argument)
        << "corner_margin_m " << margin;
  }
  // The boundary values stay legal.
  PlacementPlanner::Config edge = fast_config();
  edge.trials = 1;
  edge.corner_margin_m = 0.0;
  EXPECT_NO_THROW((PlacementPlanner{edge, 1}));
}

TEST(Placement, CandidatesLineTheWalls) {
  const PlacementPlanner planner{fast_config(), 1};
  const channel::Room room{5.0, 5.0};
  const auto candidates = planner.candidates(room, {0.4, 0.4});
  EXPECT_GT(candidates.size(), 4u);
  for (const auto& c : candidates) {
    // On (just off) a wall...
    const bool near_wall = c.position.x < 0.3 || c.position.x > 4.7 ||
                           c.position.y < 0.3 || c.position.y > 4.7;
    EXPECT_TRUE(near_wall) << c.position;
    // ...and not on top of the AP.
    EXPECT_GT(geom::distance(c.position, {0.4, 0.4}), 1.0);
  }
}

TEST(Placement, CandidatesAvoidFurniture) {
  const PlacementPlanner planner{fast_config(), 1};
  const auto room = channel::Room::paper_office();
  const auto candidates = planner.candidates(room, {0.4, 0.4});
  for (const auto& c : candidates) {
    for (const auto& obstacle : room.obstacles()) {
      EXPECT_GT(geom::distance(c.position, obstacle.shape.center),
                obstacle.shape.radius);
    }
  }
}

TEST(Placement, OutageCurveDecreases) {
  const PlacementPlanner planner{fast_config(), 7};
  const channel::Room room{5.0, 5.0};
  const auto plan = planner.plan(room, {0.4, 0.4});
  ASSERT_GE(plan.outage_curve.size(), 2u);
  // Blockage with no reflectors is near-certain outage...
  EXPECT_GT(plan.outage_curve.front(), 0.5);
  // ...and each greedy addition strictly improved coverage.
  for (std::size_t i = 1; i < plan.outage_curve.size(); ++i) {
    EXPECT_LT(plan.outage_curve[i], plan.outage_curve[i - 1]);
  }
  EXPECT_EQ(plan.chosen.size() + 1, plan.outage_curve.size());
}

TEST(Placement, FirstReflectorDoesTheHeavyLifting) {
  const PlacementPlanner planner{fast_config(), 7};
  const channel::Room room{5.0, 5.0};
  const auto plan = planner.plan(room, {0.4, 0.4});
  ASSERT_GE(plan.outage_curve.size(), 2u);
  EXPECT_LT(plan.outage_curve[1], 0.35);
}

TEST(Placement, StopsWhenNoMountIsLeft) {
  PlacementPlanner::Config config = fast_config();
  config.mount_spacing_m = 3.0;
  config.required_snr = rf::Decibels{25.0};
  config.target_outage = 0.0;
  config.max_reflectors = 5;
  const PlacementPlanner planner{config, 1};
  const geom::Vec2 ap{0.4, 0.4};

  // Three mounts, each of which helps: the plan takes all of them, each
  // once, and stops with outage still above the target.
  const channel::Room small{4.0, 3.0};
  const auto mounts = planner.candidates(small, ap);
  ASSERT_EQ(mounts.size(), 3u);
  const auto plan = planner.plan(small, ap);
  ASSERT_EQ(plan.chosen.size(), mounts.size());
  for (std::size_t i = 0; i < plan.chosen.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_NE(plan.chosen[i].position, plan.chosen[j].position);
    }
  }
  ASSERT_EQ(plan.outage_curve.size(), plan.chosen.size() + 1);
  for (std::size_t i = 1; i < plan.outage_curve.size(); ++i) {
    EXPECT_LT(plan.outage_curve[i], plan.outage_curve[i - 1]);
  }
  EXPECT_GT(plan.outage_curve.back(), config.target_outage);

  // Corner margins that leave no mount: the baseline alone.
  PlacementPlanner::Config wide = config;
  wide.corner_margin_m = 1.5;
  const PlacementPlanner no_mounts{wide, 1};
  const channel::Room room{3.0, 3.0};
  ASSERT_TRUE(no_mounts.candidates(room, ap).empty());
  const auto bare = no_mounts.plan(room, ap);
  EXPECT_TRUE(bare.chosen.empty());
  ASSERT_EQ(bare.outage_curve.size(), 1u);
  EXPECT_GT(bare.outage_curve.front(), config.target_outage);

  // A room too narrow to stand a headset 0.8 m from every wall has no
  // trial to score.
  EXPECT_THROW(planner.plan(channel::Room{1.5, 1.5}, ap),
               std::invalid_argument);
}

TEST(Placement, DeterministicPerSeed) {
  const channel::Room room{5.0, 5.0};
  const auto a = PlacementPlanner{fast_config(), 9}.plan(room, {0.4, 0.4});
  const auto b = PlacementPlanner{fast_config(), 9}.plan(room, {0.4, 0.4});
  ASSERT_EQ(a.chosen.size(), b.chosen.size());
  for (std::size_t i = 0; i < a.chosen.size(); ++i) {
    EXPECT_EQ(a.chosen[i].position, b.chosen[i].position);
  }
}

}  // namespace
}  // namespace movr::core
