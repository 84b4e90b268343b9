#include <core/channel_oracle.hpp>

#include <gtest/gtest.h>

#include <random>

#include <core/scene.hpp>
#include <geom/angle.hpp>

namespace movr::core {
namespace {

using geom::Vec2;
using geom::deg_to_rad;

void expect_same_paths(const std::vector<channel::Path>& a,
                       const std::vector<channel::Path>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    EXPECT_EQ(a[p].loss.value(), b[p].loss.value());
    EXPECT_EQ(a[p].length_m, b[p].length_m);
    EXPECT_EQ(a[p].departure_azimuth, b[p].departure_azimuth);
    EXPECT_EQ(a[p].arrival_azimuth, b[p].arrival_azimuth);
    EXPECT_EQ(a[p].obstruction.value(), b[p].obstruction.value());
  }
}

TEST(ChannelOracle, CountsQueriesHitsAndMisses) {
  const channel::Room room{5.0, 5.0};
  const ChannelOracle oracle{room};
  for (int i = 0; i < 5; ++i) {
    oracle.paths_view({1.0, 1.0}, {4.0, 4.0});
  }
  const auto stats = oracle.stats();
  EXPECT_EQ(stats.queries, 5u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.invalidations, 0u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.8);
  oracle.reset_stats();
  EXPECT_EQ(oracle.stats().queries, 0u);
}

TEST(ChannelOracle, CachedAnswersBitMatchDirectSolverCalls) {
  // The acceptance bar: across a scripted session with moving obstacles,
  // every memoised answer must match what a direct PathSolver call (no
  // cache anywhere) produces for the same room state.
  channel::Room room = channel::Room::paper_office();
  const ChannelOracle oracle{room};
  std::mt19937_64 rng{23};
  for (int step = 0; step < 40; ++step) {
    switch (step % 4) {
      case 0:
        room.add_obstacle(channel::make_person(
            room.random_interior_point(rng, 0.6)));
        break;
      case 1:  // "move" the person: remove + re-add elsewhere
        room.remove_obstacles("person");
        room.add_obstacle(channel::make_person(
            room.random_interior_point(rng, 0.6)));
        break;
      case 2:
        break;  // no mutation: this step must produce cache hits below
      default:
        room.remove_obstacles("person");
        break;
    }
    const Vec2 a = room.random_interior_point(rng, 0.4);
    const Vec2 b = room.random_interior_point(rng, 0.4);
    // Query twice (second one a guaranteed hit), then compare to a solver
    // built fresh on the current room — the cache-free reference.
    const auto first = *oracle.paths_view(a, b);
    const auto second = *oracle.paths_view(a, b);
    const channel::PathSolver reference{room};
    expect_same_paths(first, reference.solve(a, b));
    expect_same_paths(second, first);
  }
  const auto stats = oracle.stats();
  EXPECT_EQ(stats.queries, 80u);
  EXPECT_GE(stats.hits, 40u);  // every repeat query hit
}

TEST(ChannelOracle, RoomMutationInvalidatesExactlyLikeNoCache) {
  channel::Room room{5.0, 5.0};
  const ChannelOracle oracle{room};
  const Vec2 a{1.0, 2.5};
  const Vec2 b{4.0, 2.5};

  // Paths come back sorted by loss, so locate the LOS entry by bounce count
  // (after the blocker lands on it, it is no longer the cheapest path).
  const auto los_of = [](const std::vector<channel::Path>& paths) {
    for (const auto& path : paths) {
      if (path.bounces == 0) return path;
    }
    ADD_FAILURE() << "no line-of-sight path";
    return paths.front();
  };

  const auto clear = *oracle.paths_view(a, b);
  EXPECT_EQ(los_of(clear).obstruction.value(), 0.0);

  room.add_obstacle({geom::Circle{{2.5, 2.5}, 0.25}, channel::kBody, "p"});
  const auto blocked = *oracle.paths_view(a, b);
  EXPECT_GT(los_of(blocked).obstruction.value(), 10.0);
  expect_same_paths(blocked, channel::PathSolver{room}.solve(a, b));

  room.remove_obstacles("p");
  const auto clear_again = *oracle.paths_view(a, b);
  expect_same_paths(clear_again, clear);

  const auto stats = oracle.stats();
  EXPECT_EQ(stats.misses, 3u);  // every mutation forced a re-solve
  EXPECT_EQ(stats.invalidations, 2u);
}

TEST(ChannelOracle, WallRematerialInvalidates) {
  channel::Room room{5.0, 5.0};
  const ChannelOracle oracle{room};
  const auto drywall = *oracle.paths_view({1.0, 1.0}, {4.0, 1.0});
  room.set_wall_material("south", channel::kMetal);
  const auto metal = *oracle.paths_view({1.0, 1.0}, {4.0, 1.0});
  ASSERT_EQ(drywall.size(), metal.size());
  expect_same_paths(metal, channel::PathSolver{room}.solve({1.0, 1.0},
                                                           {4.0, 1.0}));
  EXPECT_EQ(oracle.stats().invalidations, 1u);
}

TEST(ChannelOracle, QuantisationSeparatesDistinctPoints) {
  const channel::Room room{5.0, 5.0};
  const ChannelOracle oracle{room};
  oracle.paths_view({1.0, 1.0}, {4.0, 4.0});
  oracle.paths_view({1.001, 1.0}, {4.0, 4.0});  // 1 mm away: its own key
  EXPECT_EQ(oracle.stats().misses, 2u);
  EXPECT_EQ(oracle.stats().hits, 0u);
}

TEST(ChannelOracle, SizeCapEvictsButStaysCorrect) {
  const channel::Room room{5.0, 5.0};
  ChannelOracle::Config config;
  config.max_entries = 8;
  const ChannelOracle oracle{room, config};
  std::mt19937_64 rng{5};
  for (int i = 0; i < 64; ++i) {
    const Vec2 a = room.random_interior_point(rng, 0.4);
    const Vec2 b = room.random_interior_point(rng, 0.4);
    expect_same_paths(*oracle.paths_view(a, b),
                      channel::PathSolver{room}.solve(a, b));
  }
  EXPECT_GT(oracle.stats().invalidations, 0u);  // the cap fired
}

TEST(ChannelOracle, SceneDifferentialAgainstFreshScenes) {
  // Scene-level differential: a long-lived (caching) scene must produce
  // the same SNRs as a freshly cloned scene (empty cache) at every step of
  // a scripted session with a moving blocker.
  Scene scene{channel::Room{5.0, 5.0}, ApRadio{{0.4, 0.4}, deg_to_rad(45.0)},
              HeadsetRadio{{3.0, 2.0}, 0.0}};
  auto& reflector = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0));
  reflector.front_end().steer_rx(scene.true_reflector_angle_to_ap(reflector));
  reflector.front_end().steer_tx(
      scene.true_reflector_angle_to_headset(reflector));
  reflector.front_end().set_gain_code(200);
  scene.aim_direct();

  for (int step = 0; step < 10; ++step) {
    scene.room().remove_obstacles("person");
    const double x = 1.0 + 0.3 * step;
    scene.room().add_obstacle(channel::make_person({x, 1.5}));

    const Scene fresh = scene.clone();  // identical state, empty cache
    EXPECT_EQ(scene.direct_snr().value(), fresh.direct_snr().value());
    EXPECT_EQ(scene.via_snr(reflector).snr.value(),
              fresh.via_snr(fresh.reflector(0)).snr.value());
    // Ask twice: the second answer is served from cache and must not move.
    EXPECT_EQ(scene.direct_snr().value(), scene.direct_snr().value());
  }
  EXPECT_GT(scene.oracle_stats().hits, 0u);
  // One invalidation per step: the remove+add revision bumps are observed
  // together at the step's first query.
  EXPECT_EQ(scene.oracle_stats().invalidations, 10u);
}

}  // namespace
}  // namespace movr::core
