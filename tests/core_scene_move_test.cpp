// Move-safety regression: the oracle holds a pointer to the Scene's Room.
// The Scene keeps that Room on the heap, so a move leaves the room's
// address, the oracle's binding and its warm cache as they were.
#include <core/scene.hpp>

#include <gtest/gtest.h>

#include <utility>

#include <geom/angle.hpp>

namespace movr::core {
namespace {

using geom::deg_to_rad;

Scene make_scene() {
  Scene scene{channel::Room{5.0, 5.0}, ApRadio{{0.4, 0.4}, deg_to_rad(45.0)},
              HeadsetRadio{{3.0, 2.0}, 0.0}};
  scene.aim_direct();
  return scene;
}

TEST(SceneMove, QueriesSurviveMoveConstruction) {
  Scene scene = make_scene();
  const double before = scene.direct_snr().value();
  EXPECT_GT(scene.oracle_stats().queries, 0u);

  Scene moved{std::move(scene)};
  // The oracle is still bound to the moved scene's room; the answer must
  // not change.
  EXPECT_EQ(moved.direct_snr().value(), before);
  EXPECT_EQ(&moved.oracle().room(), &moved.room());
}

TEST(SceneMove, QueriesSurviveMoveAssignment) {
  Scene scene = make_scene();
  const double before = scene.direct_snr().value();
  Scene other = make_scene();
  other = std::move(scene);
  EXPECT_EQ(other.direct_snr().value(), before);
}

TEST(SceneMove, MoveKeepsWarmCache) {
  Scene scene = make_scene();
  scene.direct_snr();
  scene.direct_snr();
  const auto warm = scene.oracle_stats();
  EXPECT_GT(warm.hits, 0u);

  Scene moved{std::move(scene)};
  moved.direct_snr();
  const auto after_move_query = moved.oracle_stats();
  // The post-move query is served from the pre-move cache: no cache drop,
  // no new miss.
  EXPECT_EQ(after_move_query.invalidations, warm.invalidations);
  EXPECT_EQ(after_move_query.misses, warm.misses);
  EXPECT_EQ(after_move_query.hits, warm.hits + 1);
}

TEST(SceneMove, MutationAfterMoveStillInvalidates) {
  Scene scene = make_scene();
  scene.direct_snr();
  Scene moved{std::move(scene)};
  const double clear = moved.direct_snr().value();
  moved.room().add_obstacle(channel::make_person(
      (moved.ap().node().position() + moved.headset().node().position()) *
      0.5));
  const double blocked = moved.direct_snr().value();
  EXPECT_GT(clear - blocked, 15.0);
  moved.room().remove_obstacles("person");
  EXPECT_EQ(moved.direct_snr().value(), clear);
}

TEST(SceneMove, CloneIsIndependent) {
  Scene scene = make_scene();
  auto& reflector = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0));
  reflector.front_end().steer_rx(scene.true_reflector_angle_to_ap(reflector));
  reflector.front_end().set_gain_code(150);

  const Scene copy = scene.clone();
  ASSERT_EQ(copy.reflector_count(), 1u);
  EXPECT_EQ(copy.reflector(0).control_name(), reflector.control_name());
  EXPECT_EQ(copy.reflector(0).front_end().gain_code(), 150u);
  EXPECT_EQ(copy.direct_snr().value(), scene.direct_snr().value());

  // Mutating the original must not leak into the clone.
  scene.room().add_obstacle(channel::make_person(
      (scene.ap().node().position() + scene.headset().node().position()) *
      0.5));
  EXPECT_GT(copy.direct_snr().value() - scene.direct_snr().value(), 15.0);
  // And the clone started with a cold cache of its own.
  EXPECT_EQ(&copy.oracle().room(), &copy.room());
}

}  // namespace
}  // namespace movr::core
