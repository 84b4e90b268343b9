// Ablation: how many reflectors, and where — versus the multi-AP strawman.
//
// The paper's Section 1 dismisses "deploy multiple mmWave transmitters"
// because of cabling and cost, and proposes cheap wall reflectors instead.
// This bench quantifies both options: probability that a random blockage
// leaves the headset without a VR-grade link, as a function of reflector
// count (wireless, cheap) and AP count (each one a full transceiver plus an
// HDMI run back to the PC).
#include <cstdio>
#include <vector>

#include <baseline/multi_ap.hpp>
#include <phy/mcs.hpp>
#include <sim/rng.hpp>
#include <vr/requirements.hpp>

#include "bench_util.hpp"

namespace {

using namespace movr;
using geom::deg_to_rad;

struct Spot {
  geom::Vec2 pos;
  double orient;
};

}  // namespace

int main() {
  sim::RngRegistry rngs{23};
  const int kTrials = 150;
  const double required_snr =
      phy::mcs_for_rate(vr::kHtcVive.required_mbps())->min_snr.value();

  // Candidate wall mounts, ordered by how a user would deploy them.
  const std::vector<Spot> mounts = {
      {{4.6, 4.6}, deg_to_rad(225.0)},  // opposite corner (paper's choice)
      {{0.4, 4.6}, deg_to_rad(315.0)},  // other far corner
      {{4.6, 0.4}, deg_to_rad(135.0)},  // near-right corner
      {{2.5, 4.8}, deg_to_rad(270.0)},  // mid far wall
  };

  bench::print_header(
      "Ablation — reflector count & placement vs multi-AP (150 blockages)");
  std::printf("%-28s %14s %16s %s\n", "deployment", "outage rate",
              "extra hardware", "cabling");

  for (int count = 0; count <= static_cast<int>(mounts.size()); ++count) {
    int outages = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      // One stream per trial, shared by every reflector count: each row
      // meets the same headset positions and blockage events.
      auto rng = rngs.stream("placement", static_cast<std::uint64_t>(trial));
      auto scene = bench::paper_scene({0.0, 0.0}, false);
      std::vector<core::MovrReflector*> reflectors;
      for (int i = 0; i < count; ++i) {
        reflectors.push_back(
            &scene.add_reflector(mounts[static_cast<std::size_t>(i)].pos,
                                 mounts[static_cast<std::size_t>(i)].orient));
      }
      const geom::Vec2 pos = scene.room().random_interior_point(rng, 0.8);
      scene.headset().node().set_position(pos);

      // A random blockage: hand, head, or passer-by. It is drawn before the
      // ramps, whose draw counts differ between rows, and placed after
      // them: the reflectors are calibrated at installation, unblocked.
      const geom::Vec2 ap = scene.ap().node().position();
      const channel::Obstacle blockage = [&] {
        std::uniform_int_distribution<int> kind{0, 2};
        switch (kind(rng)) {
          case 0:
            return channel::make_hand(pos, ap - pos);
          case 1:
            return channel::make_head(pos, ap - pos);
          default:
            return channel::make_person(
                pos + (ap - pos).normalized() *
                          bench::uniform(rng, 0.6, 2.0));
        }
      }();
      for (auto* r : reflectors) {
        scene.calibrate_reflector(*r, rng);
      }
      scene.room().add_obstacle(blockage);

      // Best available link: direct, or via any reflector.
      scene.aim_direct();
      double best = scene.direct_snr().value();
      for (auto* r : reflectors) {
        scene.aim_via(*r);
        r->front_end().steer_tx(scene.true_reflector_angle_to_headset(*r));
        best = std::max(best, scene.via_snr(*r).snr.value());
      }
      outages += best < required_snr;
    }
    std::printf("%d reflector(s)%-14s %10.1f %%  %16s %s\n", count, "",
                100.0 * outages / kTrials,
                count == 0 ? "none" : "passive mirrors", "none");
  }

  // Multi-AP alternative: full transceivers, each wired to the PC.
  for (const int aps : {2, 4}) {
    int outages = 0;
    const auto deployment = baseline::corner_deployment(5.0, 5.0, aps);
    for (int trial = 0; trial < kTrials; ++trial) {
      auto rng = rngs.stream("multiap", static_cast<std::uint64_t>(
                                            aps * 1000 + trial));
      auto scene = bench::paper_scene({0.0, 0.0}, false);
      const geom::Vec2 pos = scene.room().random_interior_point(rng, 0.8);
      scene.headset().node().set_position(pos);
      const geom::Vec2 ap = scene.ap().node().position();
      scene.room().add_obstacle(channel::make_hand(pos, ap - pos));
      outages += deployment.best_snr(scene, pos).value() < required_snr;
    }
    std::printf("%d wired APs%-16s %10.1f %%  %16s %.1f m HDMI\n", aps, "",
                100.0 * outages / kTrials, "full transceivers",
                deployment.cabling_metres({0.4, 0.4}));
  }

  std::printf("\nreading: one well-placed reflector removes almost all "
              "blockage outages at the cost\nof a passive wall unit; matching "
              "that with APs needs several full radios and an HDMI\nrun to "
              "each — the paper's cabling-complexity argument.\n");
  return 0;
}
