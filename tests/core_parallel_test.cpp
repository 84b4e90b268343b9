// The parallel grid evaluators and their substrate. This file builds into
// its own test binary carrying the `tsan` ctest label: build with
// -DMOVR_SANITIZE=thread (or the `tsan` preset) and run `ctest -L tsan` to
// put every concurrent path under ThreadSanitizer.
#include <core/parallel_for.hpp>

#include <gtest/gtest.h>

#include <algorithm>
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
#include <phy/link.hpp>
#include <sim/rng.hpp>

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
  // Every read is one paths_view call that solves its own miss: nothing
  // goes through the batched query or grows its scratch.
  EXPECT_EQ(map.oracle.batch_queries, 0u);
  EXPECT_EQ(map.oracle.arena_bytes, 0u);
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

// The planner as it was before it shared any work between candidate sets:
// every set is scored from scratch, each trial recalibrating every mount.
// The evaluation body and the greedy loop are that implementation's, with
// the planner's config and seed as parameters, and with its draw order
// moved to the planner's: headset position, blockage event, then each
// mount's ramp from its own copy of the trial's stream as the event left
// it, and only then the obstacle added.
double reference_outage(const PlacementPlanner::Config& config,
                        std::uint64_t seed, const channel::Room& room,
                        geom::Vec2 ap_position,
                        const std::vector<PlacementCandidate>& mounts) {
  // Every trial draws from its own (seed, trial) RNG stream: trials are
  // independent, so the evaluation parallelises over trials and the outage
  // estimate is identical for every thread count.
  const sim::RngRegistry rngs{seed};
  std::atomic<int> outages{0};
  parallel_for(
      static_cast<std::size_t>(config.trials), config.threads,
      [&](std::size_t begin, std::size_t end) {
        int local_outages = 0;
        for (std::size_t trial = begin; trial < end; ++trial) {
          std::mt19937_64 rng = rngs.stream("placement-trial", trial);
          Scene scene{channel::Room{room}, ApRadio{ap_position, 0.0},
                      HeadsetRadio{{room.width() / 2.0, room.depth() / 2.0},
                                   0.0}};
          std::vector<MovrReflector*> reflectors;
          for (const PlacementCandidate& mount : mounts) {
            reflectors.push_back(
                &scene.add_reflector(mount.position, mount.orientation));
          }
          const geom::Vec2 pos = scene.room().random_interior_point(rng, 0.8);
          scene.headset().node().set_position(pos);
          scene.ap().node().set_orientation((pos - ap_position).heading());

          // The blockage event is drawn before any ramp, so how many draws
          // a ramp takes cannot change it.
          const geom::Vec2 ap = scene.ap().node().position();
          channel::Obstacle blocker;
          std::uniform_int_distribution<int> kind{0, 2};
          switch (kind(rng)) {
            case 0:
              blocker = channel::make_hand(pos, ap - pos);
              break;
            case 1:
              blocker = channel::make_head(pos, ap - pos);
              break;
            default:
              blocker = channel::make_person(
                  pos +
                  (ap - pos).normalized() *
                      std::uniform_real_distribution<double>{0.6, 2.0}(rng));
          }

          for (auto* r : reflectors) {
            r->front_end().steer_rx(scene.true_reflector_angle_to_ap(*r));
            r->front_end().steer_tx(
                scene.true_reflector_angle_to_headset(*r));
            scene.ap().node().steer_toward(r->position());
            std::mt19937_64 mount_rng = rng;
            GainController::run(r->front_end(), scene.reflector_input(*r),
                                mount_rng);
          }

          scene.room().add_obstacle(blocker);

          scene.ap().node().steer_toward(pos);
          scene.headset().node().face_toward(ap);
          double best = scene.direct_snr().value();
          for (auto* r : reflectors) {
            scene.ap().node().steer_toward(r->position());
            scene.headset().node().face_toward(r->position());
            r->front_end().steer_tx(
                scene.true_reflector_angle_to_headset(*r));
            best = std::max(best, scene.via_snr(*r).snr.value());
          }
          local_outages += best < config.required_snr.value();
        }
        outages += local_outages;
      });
  return static_cast<double>(outages.load()) / config.trials;
}

PlacementPlan reference_plan(const PlacementPlanner::Config& config,
                             std::uint64_t seed, const channel::Room& room,
                             geom::Vec2 ap_position) {
  PlacementPlan result;
  const auto all =
      PlacementPlanner{config, seed}.candidates(room, ap_position);
  result.outage_curve.push_back(
      reference_outage(config, seed, room, ap_position, {}));

  std::vector<PlacementCandidate> chosen;
  while (static_cast<int>(chosen.size()) < config.max_reflectors &&
         result.outage_curve.back() > config.target_outage) {
    double best_outage = result.outage_curve.back();
    const PlacementCandidate* best_candidate = nullptr;
    for (const PlacementCandidate& candidate : all) {
      const bool already = std::any_of(
          chosen.begin(), chosen.end(), [&](const PlacementCandidate& c) {
            return geom::distance(c.position, candidate.position) < 1e-6;
          });
      if (already) {
        continue;
      }
      auto trial_set = chosen;
      trial_set.push_back(candidate);
      const double outage =
          reference_outage(config, seed, room, ap_position, trial_set);
      if (outage < best_outage) {
        best_outage = outage;
        best_candidate = &candidate;
      }
    }
    if (best_candidate == nullptr) {
      break;  // no candidate improves coverage
    }
    chosen.push_back(*best_candidate);
    result.outage_curve.push_back(best_outage);
  }
  result.chosen = std::move(chosen);
  return result;
}

TEST(ParallelPlacement, RoundScoringMatchesPerCandidateReference) {
  PlacementPlanner::Config config;
  config.trials = 40;
  config.mount_spacing_m = 1.6;
  config.max_reflectors = 3;
  config.target_outage = 0.0;
  const geom::Vec2 ap{0.4, 0.4};
  // A stricter bar than the default keeps both rooms above zero outage
  // until the third round. The last case pins the stream contract: were
  // every mount ramped from the trial's stream itself instead of its own
  // copy, its plan would pick other mounts first.
  struct Case {
    channel::Room room;
    double required_snr_db;
    std::uint64_t seed;
  };
  for (const Case& c : {Case{channel::Room::paper_office(), 25.0, 1},
                        Case{channel::Room{5.0, 5.0}, 25.0, 1},
                        Case{channel::Room{5.0, 5.0}, 28.0, 29}}) {
    SCOPED_TRACE(c.seed);
    config.required_snr = rf::Decibels{c.required_snr_db};
    config.threads = 1;
    const PlacementPlan expected = reference_plan(config, c.seed, c.room, ap);
    // Three mounts: the last round scores against a two-mount prefix.
    ASSERT_EQ(expected.chosen.size(), 3u);
    for (const unsigned threads : {1u, 4u}) {
      config.threads = threads;
      const PlacementPlan plan =
          PlacementPlanner{config, c.seed}.plan(c.room, ap);
      ASSERT_EQ(plan.chosen.size(), expected.chosen.size());
      for (std::size_t i = 0; i < plan.chosen.size(); ++i) {
        EXPECT_EQ(plan.chosen[i].position, expected.chosen[i].position);
        EXPECT_EQ(plan.chosen[i].orientation, expected.chosen[i].orientation);
      }
      EXPECT_EQ(plan.outage_curve, expected.outage_curve);
    }
  }
}

TEST(SharedOracle, ConcurrentConstQueriesAreSafe) {
  // ChannelOracle's queries are const and internally synchronized: many
  // threads may query one oracle as long as nobody mutates its room. A
  // Scene's own queries write its hop memos (core/hop_memo.hpp), so a
  // Scene is used by one thread at a time: each reader sums the direct hop
  // itself over the shared oracle's views, and queries a clone of its own,
  // as the parallel evaluators do. Under -DMOVR_SANITIZE=thread this is the
  // mutex's proof obligation.
  const Scene scene = deployed_scene();
  const phy::RadioNode& ap = scene.ap().node();
  const phy::RadioNode& headset = scene.headset().node();
  const ChannelOracle& oracle = scene.oracle();
  const auto expected = scene.direct_power().value();  // warms the cache
  const auto warm = scene.oracle_stats();
  std::vector<std::thread> readers;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      const Scene local = scene.clone();  // its own oracle and cold memos
      if (local.direct_power().value() != expected) {
        mismatches.fetch_add(1);
      }
      for (int i = 0; i < 200; ++i) {
        const auto paths =
            oracle.paths_view(ap.position(), headset.position());
        if (phy::received_power(ap, headset, *paths, scene.config().link)
                .value() != expected) {
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
