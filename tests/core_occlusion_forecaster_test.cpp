#include <core/occlusion_forecaster.hpp>

#include <gtest/gtest.h>

#include <channel/obstacle.hpp>
#include <channel/room.hpp>
#include <core/ap.hpp>
#include <core/headset.hpp>
#include <core/scene.hpp>
#include <geom/angle.hpp>

namespace movr::core {
namespace {

using geom::Vec2;
using geom::deg_to_rad;
using namespace std::chrono_literals;

/// Empty 5x5 office, AP in the corner, headset at `headset_pos`, one
/// person standing at {1.7, 1.3} — on the AP->{3.0, 2.2} line.
Scene blocked_scene(Vec2 headset_pos) {
  channel::Room room{5.0, 5.0};
  room.add_obstacle(channel::make_person({1.7, 1.3}));
  ApRadio ap{{0.4, 0.4}, deg_to_rad(45.0)};
  HeadsetRadio headset{headset_pos, 0.0};
  Scene scene{std::move(room), std::move(ap), std::move(headset)};
  scene.aim_direct();
  return scene;
}

OcclusionForecaster::Config noiseless() {
  OcclusionForecaster::Config config;
  config.tracker.tracking_noise_m = 0.0;
  return config;
}

/// Walks the headset toward the shadow at `speed` m/s along -x starting
/// from `from`, feeding poses at 90 Hz, and returns the first window.
std::optional<LinkRiskWindow> drive_toward_shadow(OcclusionForecaster& fc,
                                                  Scene& scene, Vec2 from,
                                                  Vec2 velocity, int frames) {
  for (int i = 0; i < frames; ++i) {
    const auto t = sim::from_seconds(i * 0.0111);
    const Vec2 pos = from + velocity * sim::to_seconds(t);
    scene.headset().node().set_position(pos);
    fc.on_pose(sim::TimePoint{t}, pos);
    const auto window = fc.forecast(scene, sim::TimePoint{t});
    if (window.has_value()) {
      return window;
    }
  }
  return std::nullopt;
}

TEST(OcclusionForecaster, ForecastsApproachingShadow) {
  // The shadow of the person at {1.7, 1.3} covers headset positions near
  // the extended AP ray (through {3.0, 2.2}). Approach it from the side at
  // walking speed: the forecaster must issue a window BEFORE the LOS
  // actually blocks.
  auto scene = blocked_scene({3.6, 1.4});
  OcclusionForecaster fc{noiseless()};
  // Perpendicular-ish approach toward the shadow axis.
  const auto window =
      drive_toward_shadow(fc, scene, {3.6, 1.4}, {-1.0, 1.3}, 90);
  ASSERT_TRUE(window.has_value());
  EXPECT_GT(window->confidence, 0.0);
  EXPECT_LT(window->t_start, window->t_end);
  // At forecast time the current LOS is still clear — that is the contract
  // (already-blocked links belong to the reactive tier).
  const Vec2 ap = scene.ap().node().position();
  const Vec2 headset = scene.headset().node().position();
  bool blocked_now = true;
  const auto paths = scene.paths_view(ap, headset);
  for (const auto& path : *paths) {
    if (path.is_los()) {
      blocked_now = path.is_blocked(3.0);
    }
  }
  EXPECT_FALSE(blocked_now);
}

TEST(OcclusionForecaster, StationaryPlayerNoWindow) {
  auto scene = blocked_scene({3.6, 1.4});
  OcclusionForecaster fc{noiseless()};
  const auto window =
      drive_toward_shadow(fc, scene, {3.6, 1.4}, {0.0, 0.0}, 90);
  EXPECT_FALSE(window.has_value());
  EXPECT_GT(fc.counters().forecasts, 0);
  EXPECT_EQ(fc.counters().windows_issued, 0);
}

TEST(OcclusionForecaster, ShortHistoryIsNoPrediction) {
  auto scene = blocked_scene({3.6, 1.4});
  OcclusionForecaster fc{noiseless()};
  // Two samples (below min_samples = 3): the forecaster must skip, not
  // forecast from a garbage fit.
  fc.on_pose(sim::TimePoint{0ms}, {3.6, 1.4});
  fc.on_pose(sim::TimePoint{11ms}, {3.59, 1.41});
  EXPECT_FALSE(fc.forecast(scene, sim::TimePoint{11ms}).has_value());
  EXPECT_EQ(fc.counters().no_fit_skips, 1);
}

TEST(OcclusionForecaster, MovingAwayFromShadowNoWindow) {
  auto scene = blocked_scene({3.6, 1.4});
  OcclusionForecaster fc{noiseless()};
  // Walking AWAY from the shadow axis: never a risk window.
  const auto window =
      drive_toward_shadow(fc, scene, {3.6, 1.4}, {0.8, -0.5}, 60);
  EXPECT_FALSE(window.has_value());
}

TEST(OcclusionForecaster, ChaosFabricatesInClearAir) {
  // chaos_rate 1.0 flips every forecast: in clear air (walking away from
  // the shadow, honestly no risk) it fabricates a confident spurious
  // window. The suppression direction is covered by
  // ChaosStreamIsIndependent's exact-inversion count.
  auto chaos_cfg = noiseless();
  chaos_cfg.chaos_rate = 1.0;
  auto scene = blocked_scene({3.6, 1.4});
  OcclusionForecaster fc{chaos_cfg};
  const auto window =
      drive_toward_shadow(fc, scene, {3.6, 1.4}, {0.8, -0.5}, 60);
  ASSERT_TRUE(window.has_value());
  EXPECT_DOUBLE_EQ(window->confidence, 0.9);
  EXPECT_GT(fc.counters().chaos_garbled, 0);
}

TEST(OcclusionForecaster, ChaosStreamIsIndependent) {
  // Enabling chaos must not perturb the honest arm's inputs: the chaos
  // draws come from a dedicated RNG, so two forecasters fed identical
  // poses agree on every honest (pre-chaos) answer. Verified by running
  // chaos at 0.0 vs 1.0 and checking the 1.0 run garbled EVERY forecast
  // the 0.0 run issued (inversion, not divergence).
  auto scene0 = blocked_scene({3.6, 1.4});
  auto scene1 = blocked_scene({3.6, 1.4});
  OcclusionForecaster honest{noiseless()};
  auto chaos_cfg = noiseless();
  chaos_cfg.chaos_rate = 1.0;
  OcclusionForecaster garbled{chaos_cfg};

  int honest_windows = 0;
  int garbled_windows = 0;
  for (int i = 0; i < 90; ++i) {
    const auto t = sim::from_seconds(i * 0.0111);
    const Vec2 pos = Vec2{3.6, 1.4} + Vec2{-1.0, 1.3} * sim::to_seconds(t);
    scene0.headset().node().set_position(pos);
    scene1.headset().node().set_position(pos);
    honest.on_pose(sim::TimePoint{t}, pos);
    garbled.on_pose(sim::TimePoint{t}, pos);
    if (honest.forecast(scene0, sim::TimePoint{t}).has_value()) {
      ++honest_windows;
    }
    if (garbled.forecast(scene1, sim::TimePoint{t}).has_value()) {
      ++garbled_windows;
    }
  }
  EXPECT_GT(honest_windows, 0);
  // Perfect inversion: windows exactly where the honest run had none.
  EXPECT_EQ(garbled_windows + honest_windows, 90 - 2);  // minus no-fit skips
  EXPECT_EQ(garbled.counters().chaos_garbled, 90 - 2);
}

TEST(OcclusionForecaster, ResetClearsEverything) {
  auto scene = blocked_scene({3.6, 1.4});
  OcclusionForecaster fc{noiseless()};
  drive_toward_shadow(fc, scene, {3.6, 1.4}, {-1.0, 1.3}, 90);
  fc.reset();
  EXPECT_EQ(fc.tracker().sample_count(), 0u);
  EXPECT_EQ(fc.counters().forecasts, 0);
  EXPECT_EQ(fc.counters().windows_issued, 0);
}

}  // namespace
}  // namespace movr::core
