#include <phy/link.hpp>

#include <gtest/gtest.h>

#include <channel/path_solver.hpp>
#include <channel/room.hpp>
#include <geom/angle.hpp>
#include <phy/beam_sweep.hpp>
#include <rf/codebook.hpp>
#include <rf/propagation.hpp>

namespace movr::phy {
namespace {

using movr::geom::Vec2;

TEST(Link, NoiseFloorValue) {
  const LinkConfig config;
  EXPECT_NEAR(link_noise_floor(config).value(), -73.65, 0.05);
}

TEST(Link, SingleLosPathMatchesHandBudget) {
  // One path, both beams aligned: Pr = Pt + Gt + Gr - FSPL - impl.
  const channel::Room room{5.0, 5.0};
  const channel::PathSolver solver{room};
  const Vec2 a{1.0, 2.0};
  const Vec2 b{4.0, 2.0};
  RadioNode tx{a, 0.0};
  RadioNode rx{b, movr::geom::kPi};
  tx.steer_toward(b);
  rx.steer_toward(a);
  const auto los = solver.line_of_sight(a, b);
  const std::vector<channel::Path> paths{los};
  const LinkConfig config;
  const double expected = 0.0 + 15.5 + 15.5 -
                          rf::free_space_path_loss(3.0, 24.0e9).value() -
                          LinkConfig{}.implementation_loss.value();
  EXPECT_NEAR(received_power(tx, rx, paths, config).value(), expected, 0.05);
}

TEST(Link, SnrIsPowerOverFloor) {
  const channel::Room room{5.0, 5.0};
  const channel::PathSolver solver{room};
  const Vec2 a{1.0, 2.0};
  const Vec2 b{4.0, 2.0};
  RadioNode tx{a, 0.0};
  RadioNode rx{b, movr::geom::kPi};
  tx.steer_toward(b);
  rx.steer_toward(a);
  const auto paths = solver.solve(a, b);
  const LinkConfig config;
  EXPECT_NEAR(link_snr(tx, rx, paths, config).value(),
              received_power(tx, rx, paths, config).value() -
                  link_noise_floor(config).value(),
              1e-9);
}

TEST(Link, SnrFallsWithDistance) {
  const channel::Room room{20.0, 5.0};
  const channel::PathSolver solver{room};
  const LinkConfig config;
  double prev = 1e9;
  for (double d = 2.0; d <= 18.0; d += 4.0) {
    const Vec2 a{0.5, 2.5};
    const Vec2 b{0.5 + d, 2.5};
    RadioNode tx{a, 0.0};
    RadioNode rx{b, movr::geom::kPi};
    tx.steer_toward(b);
    rx.steer_toward(a);
    const auto los = solver.line_of_sight(a, b);
    const std::vector<channel::Path> paths{los};
    const double snr = link_snr(tx, rx, paths, config).value();
    EXPECT_LT(snr, prev);
    prev = snr;
  }
}

TEST(Link, MisalignedBeamLosesTensOfDb) {
  const channel::Room room{5.0, 5.0};
  const channel::PathSolver solver{room};
  const Vec2 a{1.0, 2.0};
  const Vec2 b{4.0, 2.0};
  RadioNode tx{a, 0.0};
  RadioNode rx{b, movr::geom::kPi};
  tx.steer_toward(b);
  rx.steer_toward(a);
  const auto los = solver.line_of_sight(a, b);
  const std::vector<channel::Path> paths{los};
  const LinkConfig config;
  const double aligned = link_snr(tx, rx, paths, config).value();
  tx.steer_global((b - a).heading() + movr::geom::deg_to_rad(40.0));
  const double misaligned = link_snr(tx, rx, paths, config).value();
  EXPECT_GT(aligned - misaligned, 10.0);
}

TEST(Link, LosCalibrationInPaperRoom) {
  // DESIGN.md Section 5: LOS SNR around 25 dB at mid-room distances.
  const channel::Room room{5.0, 5.0};
  const channel::PathSolver solver{room};
  const Vec2 a{0.4, 2.5};
  const Vec2 b{4.0, 2.5};
  RadioNode tx{a, 0.0};
  RadioNode rx{b, movr::geom::kPi};
  tx.steer_toward(b);
  rx.steer_toward(a);
  const auto paths = solver.solve(a, b);
  const double snr = link_snr(tx, rx, paths, LinkConfig{}).value();
  EXPECT_GT(snr, 20.0);
  EXPECT_LT(snr, 32.0);
}

TEST(BeamSweep, FindsLosAlignment) {
  const channel::Room room{5.0, 5.0};
  const channel::PathSolver solver{room};
  const Vec2 a{1.0, 1.0};
  const Vec2 b{4.0, 3.0};
  RadioNode tx{a, (b - a).heading()};
  RadioNode rx{b, (a - b).heading()};
  const auto paths = solver.solve(a, b);
  const auto codebook = rf::paper_sector_codebook(2.0);
  const LinkConfig config;
  const auto result =
      sweep_best_beams(tx, rx, paths, config, codebook, codebook);
  // Both ends should land on boresight (the LOS direction) within a step.
  EXPECT_NEAR(movr::geom::rad_to_deg(result.tx_local_angle), 90.0, 2.5);
  EXPECT_NEAR(movr::geom::rad_to_deg(result.rx_local_angle), 90.0, 2.5);
  EXPECT_EQ(result.combinations_tried, 51 * 51);
  // And the steering sticks.
  EXPECT_EQ(tx.array().steering(), result.tx_local_angle);
}

TEST(BeamSweep, NlosVariantIgnoresLos) {
  channel::Room room{5.0, 5.0};
  const channel::PathSolver solver{room};
  const Vec2 a{0.5, 2.5};
  const Vec2 b{4.5, 2.5};
  RadioNode tx{a, (b - a).heading()};
  RadioNode rx{b, (a - b).heading()};
  const auto paths = solver.solve(a, b);
  const auto codebook = rf::paper_sector_codebook(2.0);
  const LinkConfig config;
  RadioNode tx2 = tx;
  RadioNode rx2 = rx;
  const auto all = sweep_best_beams(tx, rx, paths, config, codebook, codebook);
  const auto nlos =
      sweep_best_beams_nlos(tx2, rx2, paths, config, codebook, codebook);
  // NLOS-only must be strictly worse than having the LOS available...
  EXPECT_LT(nlos.snr.value(), all.snr.value());
  // ...by roughly the paper's ~16 dB wall-reflection penalty.
  EXPECT_GT(all.snr.value() - nlos.snr.value(), 8.0);
}

}  // namespace
}  // namespace movr::phy
