// The parallel grid evaluators and their substrate. This file builds into
// its own test binary carrying the `tsan` ctest label: build with
// -DMOVR_SANITIZE=thread (or the `tsan` preset) and run `ctest -L tsan` to
// put every concurrent path under ThreadSanitizer.
#include <core/parallel_for.hpp>

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <core/coverage.hpp>
#include <core/gain_control.hpp>
#include <core/placement.hpp>
#include <core/scene.hpp>
#include <geom/angle.hpp>

namespace movr::core {
namespace {

using geom::deg_to_rad;

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> touched(1000);
  parallel_for(touched.size(), 4, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      touched[i].fetch_add(1);
    }
  });
  for (const auto& t : touched) {
    EXPECT_EQ(t.load(), 1);
  }
}

TEST(ParallelFor, HandlesCountSmallerThanThreads) {
  std::atomic<int> sum{0};
  parallel_for(3, 16, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      sum += static_cast<int>(i);
    }
  });
  EXPECT_EQ(sum.load(), 0 + 1 + 2);
}

TEST(ParallelFor, ZeroCountIsANoop) {
  parallel_for(0, 4, [](std::size_t, std::size_t) { FAIL(); });
}

TEST(ParallelFor, PropagatesTheFirstException) {
  EXPECT_THROW(
      parallel_for(100, 4,
                   [](std::size_t begin, std::size_t) {
                     if (begin == 0) {
                       throw std::runtime_error{"boom"};
                     }
                   }),
      std::runtime_error);
}

TEST(ParallelFor, ResolveThreadsDefaultsToHardware) {
  EXPECT_GE(resolve_threads(0), 1u);
  EXPECT_EQ(resolve_threads(3), 3u);
}

Scene deployed_scene() {
  Scene scene{channel::Room::paper_office(),
              ApRadio{{0.4, 0.4}, deg_to_rad(45.0)},
              HeadsetRadio{{2.5, 2.5}, 0.0}};
  auto& reflector = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0));
  reflector.front_end().steer_rx(scene.true_reflector_angle_to_ap(reflector));
  scene.ap().node().steer_toward(reflector.position());
  std::mt19937_64 rng{1};
  GainController::run(reflector.front_end(), scene.reflector_input(reflector),
                      rng);
  return scene;
}

TEST(ParallelCoverage, IdenticalForEveryThreadCount) {
  const Scene scene = deployed_scene();
  const auto serial = compute_coverage(scene, 0.5, 0.5, 1);
  for (const unsigned threads : {2u, 4u, 8u}) {
    const auto parallel = compute_coverage(scene, 0.5, 0.5, threads);
    ASSERT_EQ(parallel.cells.size(), serial.cells.size());
    for (std::size_t i = 0; i < serial.cells.size(); ++i) {
      EXPECT_EQ(parallel.cells[i].direct_snr.value(),
                serial.cells[i].direct_snr.value());
      EXPECT_EQ(parallel.cells[i].via_snr.value(),
                serial.cells[i].via_snr.value());
      EXPECT_EQ(parallel.cells[i].best_reflector,
                serial.cells[i].best_reflector);
    }
    // Same queries overall, just split across workers.
    EXPECT_EQ(parallel.oracle.queries, serial.oracle.queries);
  }
}

TEST(ParallelCoverage, LeavesTheSceneUntouched) {
  const Scene scene = deployed_scene();
  const geom::Vec2 pos = scene.headset().node().position();
  const double ap_steer = scene.ap().node().array().steering();
  const double tx_steer =
      scene.reflector(0).front_end().tx_array().steering();
  const auto before = scene.oracle_stats();
  compute_coverage(scene, 0.5, 0.5, 4);
  EXPECT_EQ(scene.headset().node().position(), pos);
  EXPECT_EQ(scene.ap().node().array().steering(), ap_steer);
  EXPECT_EQ(scene.reflector(0).front_end().tx_array().steering(), tx_steer);
  // Workers query their own clones, never the caller's oracle.
  EXPECT_EQ(scene.oracle_stats().queries, before.queries);
}

TEST(ParallelCoverage, ReportsAggregatedOracleCounters) {
  const Scene scene = deployed_scene();
  const auto map = compute_coverage(scene, 0.5, 0.5, 4);
  EXPECT_GT(map.oracle.queries, 0u);
  // The AP->reflector hop is the same for every cell a worker evaluates:
  // the oracle must be earning real hits on the grid workload.
  EXPECT_GT(map.oracle.hit_rate(), 0.2);
}

TEST(ParallelPlacement, PlanIdenticalForEveryThreadCount) {
  const channel::Room room{5.0, 5.0};
  PlacementPlanner::Config config;
  config.trials = 24;
  config.mount_spacing_m = 1.6;
  config.max_reflectors = 2;

  config.threads = 1;
  const auto serial = PlacementPlanner{config, 9}.plan(room, {0.4, 0.4});
  for (const unsigned threads : {2u, 4u}) {
    config.threads = threads;
    const auto parallel = PlacementPlanner{config, 9}.plan(room, {0.4, 0.4});
    ASSERT_EQ(parallel.chosen.size(), serial.chosen.size());
    for (std::size_t i = 0; i < serial.chosen.size(); ++i) {
      EXPECT_EQ(parallel.chosen[i].position, serial.chosen[i].position);
    }
    ASSERT_EQ(parallel.outage_curve.size(), serial.outage_curve.size());
    for (std::size_t i = 0; i < serial.outage_curve.size(); ++i) {
      EXPECT_EQ(parallel.outage_curve[i], serial.outage_curve[i]);
    }
  }
}

TEST(SharedOracle, ConcurrentConstQueriesAreSafe) {
  // Scene::paths_view is const and internally synchronized: many
  // threads may interrogate one scene as long as nobody mutates it. Under
  // -DMOVR_SANITIZE=thread this is the mutex's proof obligation.
  const Scene scene = deployed_scene();
  const auto expected = scene.direct_snr().value();  // warms the cache
  const auto warm = scene.oracle_stats();
  std::vector<std::thread> readers;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        if (scene.direct_snr().value() != expected) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& r : readers) {
    r.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
  const auto stats = scene.oracle_stats();
  EXPECT_EQ(stats.queries, warm.queries + 800);  // 4 x 200 reader queries
  EXPECT_EQ(stats.misses, warm.misses);          // all of them cache hits
}

}  // namespace
}  // namespace movr::core
