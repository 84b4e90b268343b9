#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>

#include <geom/angle.hpp>
#include <hw/front_end.hpp>
#include <hw/leakage.hpp>
#include <hw/stability.hpp>

namespace movr::hw {
namespace {

using movr::geom::deg_to_rad;
using rf::DbmPower;
using rf::Decibels;

TEST(Leakage, WithinCalibratedEnvelope) {
  const LeakageModel model;
  // Fig. 7's envelope: coupling between about -85 and -45 dB over the
  // sector for the two RX angles the paper plots.
  for (const double rx : {50.0, 65.0}) {
    for (double tx = 40.0; tx <= 140.0; tx += 1.0) {
      const double c = model.coupling(deg_to_rad(tx), deg_to_rad(rx)).value();
      EXPECT_LT(c, -40.0) << "tx " << tx << " rx " << rx;
      EXPECT_GT(c, -90.0) << "tx " << tx << " rx " << rx;
    }
  }
}

TEST(Leakage, SwingAtLeastFifteenDb) {
  // The paper: "the leakage variation can be as high as 20 dB".
  const LeakageModel model;
  for (const double rx : {50.0, 65.0}) {
    double lo = 1e9;
    double hi = -1e9;
    for (double tx = 40.0; tx <= 140.0; tx += 1.0) {
      const double c = model.coupling(deg_to_rad(tx), deg_to_rad(rx)).value();
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
    EXPECT_GT(hi - lo, 15.0) << "rx " << rx;
  }
}

TEST(Leakage, DependsOnBothAngles) {
  const LeakageModel model;
  const double a = model.coupling(deg_to_rad(60.0), deg_to_rad(50.0)).value();
  const double b = model.coupling(deg_to_rad(120.0), deg_to_rad(50.0)).value();
  const double c = model.coupling(deg_to_rad(60.0), deg_to_rad(110.0)).value();
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
}

TEST(Leakage, DeterministicAcrossInstances) {
  const LeakageModel m1;
  const LeakageModel m2;
  EXPECT_EQ(m1.coupling(1.0, 1.5).value(), m2.coupling(1.0, 1.5).value());
}

TEST(Leakage, IsolationIsNegatedCoupling) {
  const LeakageModel model;
  EXPECT_EQ(model.isolation(1.0, 1.2).value(),
            -model.coupling(1.0, 1.2).value());
}

TEST(Leakage, WorstCaseIsolationMatchesBruteForceScan) {
  const LeakageModel model;
  const int n = 48;
  const double lo = 0.02;
  const double step = (movr::geom::kPi - 0.02 - lo) / (n - 1);
  double worst = 1e9;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      const double isolation =
          model.isolation(lo + step * i, lo + step * j).value();
      worst = std::min(worst, isolation);
    }
  }
  EXPECT_EQ(model.worst_case_isolation(n).value(), worst);
}

TEST(Stability, MarginAndCriterion) {
  EXPECT_TRUE(is_loop_stable(Decibels{40.0}, Decibels{50.0}));
  EXPECT_FALSE(is_loop_stable(Decibels{50.0}, Decibels{50.0}));
  EXPECT_FALSE(is_loop_stable(Decibels{60.0}, Decibels{50.0}));
  EXPECT_EQ(loop_margin(Decibels{40.0}, Decibels{50.0}).value(), 10.0);
}

TEST(Stability, RegenerationVanishesWithMargin) {
  // 30 dB of margin: boost is essentially zero.
  const Decibels boost = regeneration_boost(Decibels{20.0}, Decibels{50.0});
  EXPECT_LT(boost.value(), 0.3);
}

TEST(Stability, RegenerationGrowsNearInstability) {
  const double b10 = regeneration_boost(Decibels{40.0}, Decibels{50.0}).value();
  const double b3 = regeneration_boost(Decibels{47.0}, Decibels{50.0}).value();
  const double b1 = regeneration_boost(Decibels{49.0}, Decibels{50.0}).value();
  EXPECT_LT(b10, b3);
  EXPECT_LT(b3, b1);
  EXPECT_GT(b1, 15.0);  // within 1 dB of instability: >15 dB of regeneration
}

TEST(Stability, UnstableBoostThrows) {
  EXPECT_THROW(regeneration_boost(Decibels{50.0}, Decibels{50.0}),
               std::logic_error);
}

TEST(Stability, ClosedLoopGainExceedsOpenLoop) {
  const Decibels open{40.0};
  const Decibels closed = closed_loop_gain(open, Decibels{45.0});
  EXPECT_GT(closed.value(), open.value());
}

TEST(FrontEnd, GainCodeMapsToGainRange) {
  ReflectorFrontEnd fe;
  fe.set_gain_code(0);
  EXPECT_NEAR(fe.amplifier_gain().value(),
              fe.config().amplifier.min_gain.value(), 1e-9);
  fe.set_gain_code(fe.max_gain_code());
  EXPECT_NEAR(fe.amplifier_gain().value(),
              fe.config().amplifier.max_gain.value(), 1e-9);
}

TEST(FrontEnd, ProcessIsolationFollowsSteering) {
  // process() caches the loop isolation per beam pair; every steering
  // change, power cycle and copy must still see LeakageModel's exact value.
  const LeakageModel model;
  const auto expect_model = [&](const ReflectorFrontEnd& fe) {
    const double tx = fe.tx_array().steering();
    const double rx = fe.rx_array().steering();
    EXPECT_EQ(fe.process(DbmPower{-60.0}).isolation.value(),
              model.isolation(tx, rx).value());
  };
  ReflectorFrontEnd fe;
  expect_model(fe);
  fe.steer_rx(deg_to_rad(65.0));
  expect_model(fe);
  fe.steer_tx(deg_to_rad(110.0));
  expect_model(fe);
  expect_model(fe);  // cached pair
  fe.steer_rx(deg_to_rad(50.0));
  fe.steer_tx(deg_to_rad(80.0));
  expect_model(fe);

  ReflectorFrontEnd copy = fe;
  expect_model(copy);
  copy.steer_tx(deg_to_rad(130.0));
  expect_model(copy);
  expect_model(fe);  // the original keeps its own pair

  fe.power_cycle();
  expect_model(fe);
  fe = copy;
  expect_model(fe);
}

TEST(FrontEnd, PowerCycleRestoresFreshArrays) {
  // power_cycle rebuilds both arrays from the front end's config: the
  // result must match a fresh front end's arrays bit for bit, steering
  // and weights included.
  ReflectorFrontEnd::Config config;
  config.array.phase_bits = 3;
  ReflectorFrontEnd fe{config};
  fe.steer_rx(deg_to_rad(65.0));
  fe.steer_tx(deg_to_rad(110.0));
  fe.power_cycle();
  const ReflectorFrontEnd fresh{config};
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const auto& [cycled, built] :
       {std::pair{&fe.rx_array(), &fresh.rx_array()},
        std::pair{&fe.tx_array(), &fresh.tx_array()}}) {
    EXPECT_TRUE(cycled->shares_look(*built));
    EXPECT_EQ(cycled->config().phase_bits, built->config().phase_bits);
    EXPECT_EQ(bits(cycled->steering()), bits(built->steering()));
    for (double angle = 0.0; angle < 6.3; angle += 0.07) {
      const auto a = cycled->field(angle);
      const auto b = built->field(angle);
      EXPECT_EQ(bits(a.real()), bits(b.real())) << angle;
      EXPECT_EQ(bits(a.imag()), bits(b.imag())) << angle;
    }
  }
}

TEST(FrontEnd, GainCodeMonotone) {
  ReflectorFrontEnd fe;
  double prev = -1.0;
  for (std::uint32_t code = 0; code <= fe.max_gain_code(); code += 16) {
    fe.set_gain_code(code);
    EXPECT_GT(fe.amplifier_gain().value(), prev);
    prev = fe.amplifier_gain().value();
  }
}

TEST(FrontEnd, StableAtLowGain) {
  ReflectorFrontEnd fe;
  fe.steer_rx(deg_to_rad(90.0));
  fe.steer_tx(deg_to_rad(90.0));
  fe.set_gain_code(50);
  const auto state = fe.process(DbmPower{-50.0});
  EXPECT_TRUE(state.stable);
  EXPECT_FALSE(state.saturated);
  EXPECT_GT(state.output.value(), -50.0);  // it amplifies
}

TEST(FrontEnd, EffectiveGainAtLeastCommandedWhenStable) {
  ReflectorFrontEnd fe;
  fe.steer_rx(deg_to_rad(75.0));
  fe.steer_tx(deg_to_rad(110.0));
  fe.set_gain_code(100);
  const auto state = fe.process(DbmPower{-55.0});
  ASSERT_TRUE(state.stable);
  EXPECT_GE(state.effective_gain.value(),
            fe.amplifier_gain().value() - 0.2);
}

TEST(FrontEnd, ModulationProducesSideband) {
  ReflectorFrontEnd fe;
  fe.set_gain_code(100);
  fe.set_modulating(false);
  const auto quiet = fe.process(DbmPower{-50.0});
  EXPECT_LT(quiet.sideband_output.value(), -250.0);  // no sideband
  fe.set_modulating(true);
  const auto modulated = fe.process(DbmPower{-50.0});
  EXPECT_NEAR(modulated.sideband_output.value(),
              modulated.output.value() +
                  fe.config().modulation_sideband_loss.value(),
              1e-9);
}

namespace {
/// A front end whose leakage is deliberately poor: isolation drops below
/// the amplifier's maximum gain at many beam pairs, so instability is
/// reachable — the regime the §4.2 controller exists for.
ReflectorFrontEnd leaky_front_end() {
  ReflectorFrontEnd::Config config;
  config.leakage.board_coupling = rf::Decibels{-10.0};
  return ReflectorFrontEnd{config};
}
}  // namespace

TEST(FrontEnd, InstabilityDetectedSomewhere) {
  auto fe = leaky_front_end();
  fe.set_gain_code(fe.max_gain_code());
  int unstable = 0;
  for (double tx = 40.0; tx <= 140.0; tx += 5.0) {
    for (double rx = 40.0; rx <= 140.0; rx += 5.0) {
      fe.steer_tx(deg_to_rad(tx));
      fe.steer_rx(deg_to_rad(rx));
      const auto state = fe.process(DbmPower{-50.0});
      if (!state.stable) {
        ++unstable;
        EXPECT_TRUE(state.saturated);
      }
    }
  }
  EXPECT_GT(unstable, 0);
}

TEST(FrontEnd, UnstableDrawsMoreCurrentThanIdle) {
  auto fe = leaky_front_end();
  // Find an unstable configuration.
  fe.set_gain_code(fe.max_gain_code());
  bool found = false;
  for (double tx = 40.0; tx <= 140.0 && !found; tx += 2.0) {
    for (double rx = 40.0; rx <= 140.0 && !found; rx += 2.0) {
      fe.steer_tx(deg_to_rad(tx));
      fe.steer_rx(deg_to_rad(rx));
      if (!fe.process(DbmPower{-50.0}).stable) {
        found = true;
      }
    }
  }
  ASSERT_TRUE(found);
  const auto unstable_state = fe.process(DbmPower{-50.0});
  fe.set_gain_code(0);
  const auto idle_state = fe.process(DbmPower{-50.0});
  EXPECT_GT(unstable_state.supply_current_a,
            idle_state.supply_current_a + 0.05);
}

TEST(FrontEnd, CurrentReadingTracksState) {
  ReflectorFrontEnd fe;
  fe.set_gain_code(60);
  std::mt19937_64 rng{3};
  const double reading = fe.read_current(DbmPower{-50.0}, rng, 16);
  const auto state = fe.process(DbmPower{-50.0});
  EXPECT_NEAR(reading, state.supply_current_a, 0.01);
}

}  // namespace
}  // namespace movr::hw
