#include <gtest/gtest.h>

#include <channel/path_solver.hpp>
#include <channel/room.hpp>
#include <geom/angle.hpp>
#include <phy/beam_sweep.hpp>

namespace movr::phy {
namespace {

using geom::Vec2;
using geom::deg_to_rad;

TEST(FullSweep, FindsLosBehindTheMount) {
  // The receiver's single face points AWAY from the transmitter: the
  // sector sweep is blind, the full-azimuth sweep re-faces and finds LOS.
  const channel::Room room{5.0, 5.0};
  const channel::PathSolver solver{room};
  RadioNode tx{{1.0, 2.5}, 0.0};
  RadioNode rx{{4.0, 2.5}, 0.0};  // boresight +x: the AP is behind it
  const auto paths = solver.solve(tx.position(), rx.position());
  const LinkConfig config;
  const auto result = sweep_all_directions(tx, rx, paths, config,
                                           /*nlos_only=*/false);
  EXPECT_GT(result.snr.value(), 20.0);
  // The winning mount points the rx array back toward the tx.
  EXPECT_NEAR(geom::angular_distance(rx.steering_global(), geom::kPi), 0.0,
              deg_to_rad(4.0));
}

TEST(FullSweep, NlosOnlyExcludesLos) {
  const channel::Room room{5.0, 5.0};
  const channel::PathSolver solver{room};
  RadioNode tx{{0.5, 2.5}, 0.0};
  RadioNode rx{{4.5, 2.5}, geom::kPi};
  const auto paths = solver.solve(tx.position(), rx.position());
  const LinkConfig config;
  RadioNode tx2 = tx;
  RadioNode rx2 = rx;
  const auto all = sweep_all_directions(tx, rx, paths, config, false);
  const auto nlos = sweep_all_directions(tx2, rx2, paths, config, true);
  EXPECT_GT(all.snr.value() - nlos.snr.value(), 8.0);
}

TEST(FullSweep, CorneredApReachesAdjacentWalls) {
  // The regression behind this API: an AP mounted in a corner cannot
  // launch toward its own adjacent walls within one sector; the full sweep
  // must still find a usable wall bounce when the LOS is blocked.
  channel::Room room{5.0, 5.0};
  const Vec2 ap{0.4, 0.4};
  const Vec2 hs{1.37, 1.75};
  room.add_obstacle(channel::make_person(hs + (ap - hs).normalized() * 1.0));
  const channel::PathSolver solver{room};
  RadioNode tx{ap, deg_to_rad(45.0)};
  RadioNode rx{hs, (ap - hs).heading()};
  const auto paths = solver.solve(ap, hs);
  const auto result =
      sweep_all_directions(tx, rx, paths, LinkConfig{}, /*nlos_only=*/true);
  // The best wall bounce is ~13 dB below clear LOS (~29 dB): mid-teens.
  EXPECT_GT(result.snr.value(), 10.0);
}

TEST(FullSweep, LeavesRadiosOnWinner) {
  const channel::Room room{5.0, 5.0};
  const channel::PathSolver solver{room};
  RadioNode tx{{1.0, 2.5}, 0.0};
  RadioNode rx{{4.0, 2.5}, 0.0};
  const auto paths = solver.solve(tx.position(), rx.position());
  const LinkConfig config;
  const auto result = sweep_all_directions(tx, rx, paths, config, false);
  EXPECT_EQ(tx.orientation(), result.tx_orientation);
  EXPECT_EQ(rx.orientation(), result.rx_orientation);
  EXPECT_EQ(tx.array().steering(), result.tx_local_angle);
  EXPECT_EQ(rx.array().steering(), result.rx_local_angle);
  // And the reported SNR is reproducible from that state.
  EXPECT_NEAR(link_snr(tx, rx, paths, config).value(), result.snr.value(),
              1e-9);
}

TEST(FullSweep, CoarseToFineCountsWork) {
  const channel::Room room{5.0, 5.0};
  const channel::PathSolver solver{room};
  RadioNode tx{{1.0, 2.5}, 0.0};
  RadioNode rx{{4.0, 2.5}, geom::kPi};
  const auto paths = solver.solve(tx.position(), rx.position());
  const auto result = sweep_all_directions(tx, rx, paths, LinkConfig{},
                                           false, 10.0, 2.0, 2);
  // Coarse: 2 faces x 2 faces x 17 x 17; fine: 11 x 11 around the winner.
  EXPECT_EQ(result.combinations_tried, 4 * 17 * 17 + 11 * 11);
}

TEST(FullSweep, FineStepImprovesOrMatchesCoarse) {
  const channel::Room room{5.0, 5.0};
  const channel::PathSolver solver{room};
  RadioNode tx{{1.2, 1.3}, 0.7};
  RadioNode rx{{3.9, 3.6}, 2.0};
  const auto paths = solver.solve(tx.position(), rx.position());
  RadioNode tx2 = tx;
  RadioNode rx2 = rx;
  const auto coarse_only = sweep_all_directions(tx, rx, paths, LinkConfig{},
                                                false, 6.0, 6.0);
  const auto refined = sweep_all_directions(tx2, rx2, paths, LinkConfig{},
                                            false, 6.0, 1.0);
  EXPECT_GE(refined.snr.value(), coarse_only.snr.value() - 1e-9);
}

}  // namespace
}  // namespace movr::phy
