#include <core/coverage.hpp>

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include <core/gain_control.hpp>
#include <geom/angle.hpp>

namespace movr::core {
namespace {

using geom::deg_to_rad;

Scene make_scene(bool with_reflector) {
  Scene scene{channel::Room{5.0, 5.0},
              ApRadio{{0.4, 0.4}, deg_to_rad(45.0)},
              HeadsetRadio{{2.5, 2.5}, 0.0}};
  if (with_reflector) {
    auto& reflector = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0));
    reflector.front_end().steer_rx(
        scene.true_reflector_angle_to_ap(reflector));
    scene.ap().node().steer_toward(reflector.position());
    std::mt19937_64 rng{1};
    GainController::run(reflector.front_end(), scene.reflector_input(reflector),
                        rng);
  }
  return scene;
}

TEST(Coverage, GridDimensions) {
  Scene scene = make_scene(false);
  const auto map = compute_coverage(scene, 0.5, 0.5);
  EXPECT_EQ(map.cells_x, 9);
  EXPECT_EQ(map.cells_y, 9);
  EXPECT_EQ(map.cells.size(), 81u);
}

TEST(Coverage, RejectsGridsItCannotEvaluate) {
  // A margin wider than half the room used to give cells_x = cells_y = -7
  // and 49 cells outside the room; a resolution <= 0 or non-finite gave
  // negative counts or cast a non-finite count to int. At 1e-4 m each axis
  // fits an int but the grid, 80,001^2 cells, does not: it used to size
  // about 256 GB of cells.
  const Scene scene{channel::Room{8.0, 8.0}, ApRadio{{0.4, 0.4}, 0.0},
                    HeadsetRadio{{4.0, 4.0}, 0.0}};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(compute_coverage(scene, 0.25, 5.0), std::invalid_argument);
  for (const double resolution : {0.0, -0.25, nan, inf, 1e-12}) {
    EXPECT_THROW(compute_coverage(scene, resolution, 0.5),
                 std::invalid_argument)
        << "resolution_m " << resolution;
  }
  EXPECT_THROW(compute_coverage(scene, 1e-4, 0.0), std::invalid_argument);
  for (const double margin : {-0.1, nan, inf}) {
    EXPECT_THROW(compute_coverage(scene, 0.25, margin), std::invalid_argument)
        << "wall_margin_m " << margin;
  }
  // The boundaries stay legal: a margin of half the room fits one cell,
  // and a zero margin puts cells on the walls.
  const auto centre = compute_coverage(scene, 0.25, 4.0);
  EXPECT_EQ(centre.cells_x, 1);
  EXPECT_EQ(centre.cells_y, 1);
  EXPECT_EQ(centre.cells.at(0).position, (geom::Vec2{4.0, 4.0}));
  const auto walls = compute_coverage(scene, 4.0, 0.0);
  EXPECT_EQ(walls.cells_x, 3);
  EXPECT_EQ(walls.cells.size(), 9u);
}

TEST(Coverage, DirectCoversOpenRoom) {
  Scene scene = make_scene(false);
  const auto map = compute_coverage(scene, 0.5);
  EXPECT_GT(map.covered_fraction(rf::Decibels{19.0}), 0.9);
  // No reflectors: the via layer is empty.
  EXPECT_EQ(map.reflector_covered_fraction(rf::Decibels{19.0}), 0.0);
  for (const auto& cell : map.cells) {
    EXPECT_EQ(cell.best_reflector, -1);
  }
}

TEST(Coverage, ReflectorAddsResilientLayer) {
  Scene scene = make_scene(true);
  const auto map = compute_coverage(scene, 0.5);
  // A good chunk of the room is reachable via the reflector alone.
  EXPECT_GT(map.reflector_covered_fraction(rf::Decibels{19.0}), 0.4);
}

TEST(Coverage, RestoresSceneState) {
  Scene scene = make_scene(true);
  const geom::Vec2 pos = scene.headset().node().position();
  const double orient = scene.headset().node().orientation();
  const double steer = scene.ap().node().array().steering();
  compute_coverage(scene, 0.5);
  EXPECT_EQ(scene.headset().node().position(), pos);
  EXPECT_EQ(scene.headset().node().orientation(), orient);
  EXPECT_EQ(scene.ap().node().array().steering(), steer);
}

TEST(Coverage, RenderShape) {
  Scene scene = make_scene(true);
  const auto map = compute_coverage(scene, 0.5);
  const std::string art = render_coverage(map, rf::Decibels{19.0});
  // cells_y lines of cells_x characters.
  std::size_t lines = 0;
  std::size_t line_length = 0;
  for (const char c : art) {
    if (c == '\n') {
      ++lines;
      EXPECT_EQ(line_length, static_cast<std::size_t>(map.cells_x));
      line_length = 0;
    } else {
      EXPECT_TRUE(c == '#' || c == '+' || c == '.') << c;
      ++line_length;
    }
  }
  EXPECT_EQ(lines, static_cast<std::size_t>(map.cells_y));
  // With a far-corner reflector the map contains all three glyphs... at
  // least direct coverage must appear.
  EXPECT_NE(art.find('#'), std::string::npos);
}

TEST(Coverage, ObstaclesCarveHoles) {
  Scene scene = make_scene(false);
  const auto before = compute_coverage(scene, 0.5);
  scene.room().add_obstacle(
      {geom::Circle{{2.5, 2.5}, 0.5}, channel::kFurniture, "pillar"});
  const auto after = compute_coverage(scene, 0.5);
  EXPECT_LT(after.covered_fraction(rf::Decibels{19.0}),
            before.covered_fraction(rf::Decibels{19.0}));
}

}  // namespace
}  // namespace movr::core
