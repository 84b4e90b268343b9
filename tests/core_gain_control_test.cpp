#include <core/gain_control.hpp>

#include <gtest/gtest.h>

#include <stdexcept>

#include <geom/angle.hpp>
#include <hw/stability.hpp>

namespace movr::core {
namespace {

using movr::geom::deg_to_rad;
using rf::DbmPower;

TEST(GainControl, LeavesLoopStable) {
  hw::ReflectorFrontEnd fe;
  fe.steer_rx(deg_to_rad(80.0));
  fe.steer_tx(deg_to_rad(100.0));
  std::mt19937_64 rng{1};
  const auto result = GainController::run(fe, DbmPower{-50.0}, rng);
  const auto state = fe.process(DbmPower{-50.0});
  EXPECT_TRUE(state.stable);
  EXPECT_FALSE(state.saturated);
}

TEST(GainControl, FinalGainBelowIsolation) {
  hw::ReflectorFrontEnd fe;
  fe.steer_rx(deg_to_rad(70.0));
  fe.steer_tx(deg_to_rad(120.0));
  std::mt19937_64 rng{2};
  const auto result = GainController::run(fe, DbmPower{-50.0}, rng);
  const auto state = fe.process(DbmPower{-50.0});
  EXPECT_LT(result.final_gain.value(), state.isolation.value());
}

TEST(GainControl, RejectsZeroCodeStep) {
  hw::ReflectorFrontEnd fe;
  std::mt19937_64 rng{1};
  GainController::Config config;
  config.code_step = 0;
  EXPECT_THROW(GainController::run(fe, DbmPower{-50.0}, rng, config),
               std::invalid_argument);
}

TEST(GainControl, RejectsNonPositiveSamplesPerStep) {
  for (const int samples : {0, -1}) {
    hw::ReflectorFrontEnd fe;
    std::mt19937_64 rng{1};
    GainController::Config config;
    config.samples_per_step = samples;
    EXPECT_THROW(GainController::run(fe, DbmPower{-50.0}, rng, config),
                 std::invalid_argument)
        << samples;
  }
}

TEST(GainControl, TraceIsRampUpward) {
  hw::ReflectorFrontEnd fe;
  std::mt19937_64 rng{3};
  const auto result = GainController::run(fe, DbmPower{-50.0}, rng);
  ASSERT_GT(result.trace.size(), 2u);
  for (std::size_t i = 1; i < result.trace.size(); ++i) {
    EXPECT_GT(result.trace[i].code, result.trace[i - 1].code);
    EXPECT_GE(result.trace[i].gain_db, result.trace[i - 1].gain_db);
  }
}

TEST(GainControl, DurationAccountsForSteps) {
  hw::ReflectorFrontEnd fe;
  std::mt19937_64 rng{4};
  GainController::Config config;
  const auto result = GainController::run(fe, DbmPower{-50.0}, rng, config);
  const auto per_step =
      config.step_settle + config.sample_time * config.samples_per_step;
  EXPECT_EQ(result.duration,
            per_step * static_cast<std::int64_t>(result.trace.size()));
  // The whole ramp fits in ~100-200 ms (Section 6 latency budget).
  EXPECT_LT(sim::to_milliseconds(result.duration), 300.0);
}

TEST(GainControl, WeakInputReachesMaxGain) {
  // With a very weak input the amplifier cannot compress and high isolation
  // beams keep the loop stable: the ramp should top out.
  hw::ReflectorFrontEnd fe;
  fe.steer_rx(deg_to_rad(90.0));
  fe.steer_tx(deg_to_rad(90.0));
  std::mt19937_64 rng{5};
  const auto result = GainController::run(fe, DbmPower{-90.0}, rng);
  const auto state = fe.process(DbmPower{-90.0});
  if (state.isolation.value() > fe.config().amplifier.max_gain.value() + 2.0) {
    EXPECT_FALSE(result.knee_found);
    EXPECT_EQ(result.final_code, fe.max_gain_code());
  }
}

// Property: across the whole beam grid the controller never leaves the
// front end unstable or compressed — the paper's §4.2 guarantee.
class GainControlGrid
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(GainControlGrid, SafeEverywhere) {
  const auto [tx_deg, rx_deg] = GetParam();
  hw::ReflectorFrontEnd fe;
  fe.steer_tx(deg_to_rad(tx_deg));
  fe.steer_rx(deg_to_rad(rx_deg));
  std::mt19937_64 rng{static_cast<std::uint64_t>(tx_deg * 1000.0 + rx_deg)};
  const auto result = GainController::run(fe, DbmPower{-48.0}, rng);
  const auto state = fe.process(DbmPower{-48.0});
  EXPECT_TRUE(state.stable) << "tx " << tx_deg << " rx " << rx_deg;
  EXPECT_FALSE(state.saturated) << "tx " << tx_deg << " rx " << rx_deg;
  EXPECT_GT(result.final_gain.value(), 10.0);  // and it is not uselessly low
}

INSTANTIATE_TEST_SUITE_P(
    BeamGrid, GainControlGrid,
    ::testing::Combine(::testing::Values(45.0, 65.0, 90.0, 115.0, 135.0),
                       ::testing::Values(45.0, 65.0, 90.0, 115.0, 135.0)));

TEST(GainControl, AdaptsToLeakage) {
  // Two beam configurations with different isolation lead to different
  // final gains: the controller actually adapts (Fig. 7's motivation).
  // A leaky build guarantees the isolation floor bites within the
  // amplifier's range at some of these beam pairs.
  hw::ReflectorFrontEnd::Config config;
  config.leakage.board_coupling = rf::Decibels{-14.0};
  std::mt19937_64 rng{7};
  std::vector<double> final_gains;
  for (const auto& [tx, rx] : {std::pair{45.0, 50.0}, std::pair{90.0, 90.0},
                               std::pair{135.0, 60.0}}) {
    hw::ReflectorFrontEnd fe{config};
    fe.steer_tx(deg_to_rad(tx));
    fe.steer_rx(deg_to_rad(rx));
    final_gains.push_back(
        GainController::run(fe, DbmPower{-48.0}, rng).final_gain.value());
  }
  const auto [lo, hi] =
      std::minmax_element(final_gains.begin(), final_gains.end());
  EXPECT_GT(*hi - *lo, 0.5);
}

}  // namespace
}  // namespace movr::core
