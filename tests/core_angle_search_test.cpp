#include <core/angle_search.hpp>

#include <gtest/gtest.h>

#include <geom/angle.hpp>
#include <sim/rng.hpp>

namespace movr::core {
namespace {

using movr::geom::Vec2;
using movr::geom::deg_to_rad;
using movr::geom::rad_to_deg;

struct Fixture {
  Scene scene;
  MovrReflector& reflector;
  sim::Simulator simulator;
  sim::ControlChannel control;

  explicit Fixture(std::uint64_t seed, Vec2 reflector_pos = {3.4, 4.8},
                   double reflector_orient = deg_to_rad(262.0),
                   sim::ControlChannel::Config bt = {})
      : scene{channel::Room{5.0, 5.0},
              ApRadio{{0.4, 0.4}, deg_to_rad(45.0)},
              HeadsetRadio{{3.0, 2.0}, 0.0}},
        reflector{scene.add_reflector(reflector_pos, reflector_orient)},
        control{simulator, bt, std::mt19937_64{seed}} {
    control.attach(reflector.control_name(),
                   [this](const sim::ControlMessage& m) { reflector.handle(m); });
  }
};

TEST(IncidenceSearch, FindsAnglesWithinTwoDegrees) {
  Fixture f{1};
  IncidenceSearch search{f.simulator, f.control, f.scene, f.reflector,
                         make_search_config(1.0), std::mt19937_64{11}};
  IncidenceResult result;
  search.start([&](const IncidenceResult& r) { result = r; });
  f.simulator.run();
  ASSERT_TRUE(result.completed);
  const double truth = f.scene.true_reflector_angle_to_ap(f.reflector);
  EXPECT_LE(rad_to_deg(movr::geom::angular_distance(result.reflector_angle,
                                                    truth)),
            2.0);
  const double ap_truth = f.scene.true_ap_angle_to_reflector(f.reflector);
  EXPECT_LE(
      rad_to_deg(movr::geom::angular_distance(result.ap_angle, ap_truth)),
      3.0);
}

TEST(IncidenceSearch, SweepsFullGrid) {
  Fixture f{2};
  const auto config = make_search_config(5.0);  // 21 x 21 coarse grid
  IncidenceSearch search{f.simulator, f.control, f.scene, f.reflector, config,
                         std::mt19937_64{3}};
  IncidenceResult result;
  search.start([&](const IncidenceResult& r) { result = r; });
  f.simulator.run();
  EXPECT_EQ(result.measurements, 21 * 21);
  // 2 arm + 21 per-angle + 3 finish commands.
  EXPECT_EQ(result.bt_commands, 2 + 21 + 3);
  // Every backscatter read is one paths_view call.
  EXPECT_EQ(f.scene.oracle_stats().batch_queries, 0u);
}

TEST(IncidenceSearch, DurationDominatedByBluetooth) {
  Fixture f{3};
  auto config = make_search_config(1.0);
  IncidenceSearch search{f.simulator, f.control, f.scene, f.reflector, config,
                         std::mt19937_64{5}};
  IncidenceResult result;
  search.start([&](const IncidenceResult& r) { result = r; });
  f.simulator.run();
  // 101 reflector repositionings x 10 ms command wait, plus sweeps:
  // around a second (the paper: "the most time consuming process").
  EXPECT_GT(sim::to_milliseconds(result.duration), 500.0);
  EXPECT_LT(sim::to_milliseconds(result.duration), 3000.0);
}

TEST(IncidenceSearch, LeavesReflectorDisarmed) {
  Fixture f{4};
  f.reflector.front_end().set_gain_code(33);  // pre-search setting
  IncidenceSearch search{f.simulator, f.control, f.scene, f.reflector,
                         make_search_config(5.0), std::mt19937_64{7}};
  IncidenceResult result;
  search.start([&](const IncidenceResult& r) { result = r; });
  f.simulator.run();
  EXPECT_FALSE(f.reflector.front_end().modulating());
  EXPECT_EQ(f.reflector.front_end().gain_code(), 33u);
  // RX beam parked on the winning angle.
  EXPECT_NEAR(f.reflector.front_end().rx_array().steering(),
              result.reflector_angle, 1e-9);
}

TEST(IncidenceSearch, SurvivesLossyBluetooth) {
  sim::ControlChannel::Config lossy;
  lossy.loss_probability = 0.15;
  Fixture f{5, {3.4, 4.8}, deg_to_rad(262.0), lossy};
  IncidenceSearch search{f.simulator, f.control, f.scene, f.reflector,
                         make_search_config(2.0), std::mt19937_64{13}};
  IncidenceResult result;
  search.start([&](const IncidenceResult& r) { result = r; });
  f.simulator.run();
  ASSERT_TRUE(result.completed);
  const double truth = f.scene.true_reflector_angle_to_ap(f.reflector);
  // Retries make commands late but the argmax still lands close.
  EXPECT_LE(rad_to_deg(movr::geom::angular_distance(result.reflector_angle,
                                                    truth)),
            6.0);
}

TEST(ReflectionSearch, PointsTxBeamAtHeadset) {
  Fixture f{6};
  // Pre-align the incidence side (as the protocol sequence would).
  f.reflector.front_end().steer_rx(
      f.scene.true_reflector_angle_to_ap(f.reflector));
  f.scene.aim_via(f.reflector);
  f.reflector.front_end().set_gain_code(220);

  ReflectionSearch search{f.simulator, f.control, f.scene, f.reflector,
                          make_search_config(1.0), std::mt19937_64{17}};
  ReflectionResult result;
  search.start([&](const ReflectionResult& r) { result = r; });
  f.simulator.run();
  ASSERT_TRUE(result.completed);
  const double truth = f.scene.true_reflector_angle_to_headset(f.reflector);
  EXPECT_LE(rad_to_deg(movr::geom::angular_distance(result.reflector_tx_angle,
                                                    truth)),
            3.0);
  // Measured at the conservative search gain, not the final operating gain.
  EXPECT_GT(result.best_snr.value(), 8.0);
  // TX beam left at the winner.
  EXPECT_NEAR(f.reflector.front_end().tx_array().steering(),
              result.reflector_tx_angle, 1e-9);
}

TEST(ReflectionSearch, CountsWork) {
  Fixture f{7};
  f.reflector.front_end().steer_rx(
      f.scene.true_reflector_angle_to_ap(f.reflector));
  f.scene.aim_via(f.reflector);
  f.reflector.front_end().set_gain_code(170);
  ReflectionSearch search{f.simulator, f.control, f.scene, f.reflector,
                          make_search_config(5.0), std::mt19937_64{19}};
  ReflectionResult result;
  search.start([&](const ReflectionResult& r) { result = r; });
  f.simulator.run();
  EXPECT_EQ(result.measurements, 21);
  // 1 arm-gain + 21 sweeps + 1 final set + 1 restore-gain.
  EXPECT_EQ(result.bt_commands, 24);
  // Every SNR read is one paths_view call.
  EXPECT_EQ(f.scene.oracle_stats().batch_queries, 0u);
}

TEST(SearchConfig, DefaultsMatchPaperSector) {
  const auto config = make_search_config(1.0);
  EXPECT_EQ(config.reflector_codebook.size(), 101u);
  EXPECT_EQ(config.ap_codebook.size(), 101u);
  EXPECT_NEAR(config.reflector_codebook.front(), deg_to_rad(40.0), 1e-12);
  EXPECT_NEAR(config.reflector_codebook.back(), deg_to_rad(140.0), 1e-9);
}

}  // namespace
}  // namespace movr::core
