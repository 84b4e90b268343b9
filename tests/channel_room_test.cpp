#include <channel/room.hpp>

#include <limits>
#include <random>
#include <stdexcept>
#include <string_view>

#include <channel/path_solver.hpp>

#include <gtest/gtest.h>

namespace movr::channel {
namespace {

TEST(Room, FourWallsClosedRectangle) {
  const Room room{5.0, 4.0};
  ASSERT_EQ(room.walls().size(), 4u);
  double perimeter = 0.0;
  for (const Wall& wall : room.walls()) {
    perimeter += wall.extent.length();
  }
  EXPECT_DOUBLE_EQ(perimeter, 18.0);
}

TEST(Room, RejectsBadDimensions) {
  EXPECT_THROW(Room(0.0, 5.0), std::invalid_argument);
  EXPECT_THROW(Room(5.0, -1.0), std::invalid_argument);
}

TEST(Room, ContainsInterior) {
  const Room room{5.0, 5.0};
  EXPECT_TRUE(room.contains({2.5, 2.5}));
  EXPECT_TRUE(room.contains({0.0, 0.0}));
  EXPECT_FALSE(room.contains({-0.1, 2.0}));
  EXPECT_FALSE(room.contains({5.1, 2.0}));
  EXPECT_FALSE(room.contains({2.0, 2.0}, 2.5));  // margin too big
}

TEST(Room, ObstacleManagement) {
  Room room{5.0, 5.0};
  EXPECT_TRUE(room.obstacles().empty());
  room.add_obstacle(make_person({1.0, 1.0}));
  room.add_obstacle(make_person({2.0, 2.0}));
  room.add_obstacle(make_hand({3.0, 3.0}, {1.0, 0.0}));
  EXPECT_EQ(room.obstacles().size(), 3u);
  room.remove_obstacles("person");
  EXPECT_EQ(room.obstacles().size(), 1u);
  EXPECT_EQ(room.obstacles().front().label, "hand");
}

TEST(Room, SetWallMaterial) {
  Room room{5.0, 5.0};
  room.set_wall_material("north", kMetal);
  int metal_walls = 0;
  for (const Wall& wall : room.walls()) {
    if (std::string_view{wall.material.name} == "metal") {
      ++metal_walls;
      EXPECT_EQ(wall.label, "north");
    }
  }
  EXPECT_EQ(metal_walls, 1);
  EXPECT_THROW(room.set_wall_material("ceiling", kMetal),
               std::invalid_argument);
}

TEST(Room, BetterWallImprovesReflection) {
  // A metal north wall makes the north bounce ~9.5 dB stronger.
  Room drywall{5.0, 5.0};
  Room metal{5.0, 5.0};
  metal.set_wall_material("north", kMetal);
  const geom::Vec2 a{1.0, 2.0};
  const geom::Vec2 b{4.0, 2.0};
  const auto north_bounce_loss = [&](const Room& room) {
    const PathSolver solver{room};
    for (const auto& path : solver.solve(a, b)) {
      if (path.bounces == 1 && path.vertices[1].y > 4.9) {
        return path.loss.value();
      }
    }
    return -1.0;
  };
  EXPECT_NEAR(north_bounce_loss(drywall) - north_bounce_loss(metal), 9.5,
              1e-6);
}

TEST(Room, PaperOfficeHasFurniture) {
  const Room office = Room::paper_office();
  EXPECT_DOUBLE_EQ(office.width(), 5.0);
  EXPECT_DOUBLE_EQ(office.depth(), 5.0);
  EXPECT_GE(office.obstacles().size(), 2u);
}

TEST(Room, RandomInteriorPointRespectsMargin) {
  const Room room{5.0, 5.0};
  std::mt19937_64 rng{3};
  for (int i = 0; i < 200; ++i) {
    const geom::Vec2 p = room.random_interior_point(rng, 0.5);
    EXPECT_GE(p.x, 0.5);
    EXPECT_LE(p.x, 4.5);
    EXPECT_GE(p.y, 0.5);
    EXPECT_LE(p.y, 4.5);
  }
  // A margin of half the narrower side leaves only its centre line; a
  // wider, negative or NaN margin leaves no interior at all.
  const Room hall{5.0, 1.6};
  EXPECT_EQ(hall.random_interior_point(rng, 0.8).y, 0.8);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double margin : {0.81, 2.6, -0.1, nan}) {
    EXPECT_THROW(hall.random_interior_point(rng, margin),
                 std::invalid_argument)
        << "margin " << margin;
  }
}

TEST(Room, RandomPointsDeterministicPerSeed) {
  const Room room{5.0, 5.0};
  std::mt19937_64 a{42};
  std::mt19937_64 b{42};
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(room.random_interior_point(a), room.random_interior_point(b));
  }
}

}  // namespace
}  // namespace movr::channel
