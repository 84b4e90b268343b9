// Reproduces Fig. 3: impact of blockage on SNR (top panel) and on the
// 802.11ad data rate (bottom panel).
//
// Protocol (paper Section 3): headset at random LOS locations in the 5x5 m
// office; measure SNR; block the LOS with a hand / the head / another
// person's body and measure again; finally ignore the LOS direction and
// sweep both beams over all directions in 1 degree steps, keeping the best
// non-line-of-sight SNR. Rates come from the 802.11ad MCS table.
#include <cstdio>
#include <vector>

#include <phy/beam_sweep.hpp>
#include <phy/mcs.hpp>
#include <rf/codebook.hpp>
#include <sim/rng.hpp>
#include <vr/requirements.hpp>

#include "bench_util.hpp"

namespace {

using namespace movr;

struct ScenarioResult {
  std::vector<double> snr_db;
  std::vector<double> rate_mbps;
};

void record(ScenarioResult& result, double snr) {
  result.snr_db.push_back(snr);
  result.rate_mbps.push_back(phy::rate_mbps(rf::Decibels{snr}));
}

}  // namespace

int main() {
  using bench::paper_scene;

  const int kRuns = 20;
  const sim::RngRegistry rngs{42};
  const double required_mbps = vr::kHtcVive.required_mbps();
  const double required_snr =
      phy::mcs_for_rate(required_mbps)->min_snr.value();

  ScenarioResult los;
  ScenarioResult hand;
  ScenarioResult head;
  ScenarioResult body;
  ScenarioResult nlos;

  for (int run = 0; run < kRuns; ++run) {
    auto rng = rngs.stream("fig3", static_cast<std::uint64_t>(run));
    // Random headset placement with a clear LOS to the AP corner.
    auto scene = paper_scene({0.0, 0.0});
    geom::Vec2 pos;
    do {
      pos = scene.room().random_interior_point(rng, 0.8);
      scene.headset().node().set_position(pos);
      scene.aim_direct();
    } while (scene.direct_snr().value() < required_snr ||
             geom::distance(pos, scene.ap().node().position()) < 1.5);

    record(los, scene.direct_snr().value());

    const geom::Vec2 ap = scene.ap().node().position();
    const auto blocked_snr = [&](channel::Obstacle obstacle) {
      scene.room().add_obstacle(std::move(obstacle));
      scene.aim_direct();
      const double snr = scene.direct_snr().value();
      return snr;
    };

    record(hand, blocked_snr(channel::make_hand(pos, ap - pos)));
    scene.room().remove_obstacles("hand");
    record(head, blocked_snr(channel::make_head(pos, ap - pos)));
    scene.room().remove_obstacles("head");
    record(body, blocked_snr(channel::make_person(pos + (ap - pos).normalized() * 1.0)));

    // Opt. NLOS: person stays up; sweep every combination of beam angle in
    // all directions (coarse 3 deg over all face pairs, 1 deg refinement),
    // ignoring the LOS.
    const auto paths = scene.paths_view(ap, pos);
    const auto sweep =
        phy::sweep_all_directions(scene.ap().node(), scene.headset().node(),
                                  *paths, scene.config().link,
                                  /*nlos_only=*/true);
    record(nlos, sweep.snr.value());
    scene.room().remove_obstacles("person");
  }

  bench::print_header(
      "Fig. 3 — Blockage impact on SNR and data rate (20 placements)");
  std::printf("required: SNR >= %.1f dB for the Vive's %.0f Mbps stream\n\n",
              required_snr, required_mbps);
  std::printf("%-22s %10s %10s %10s | %12s %8s | %s\n", "scenario",
              "SNR mean", "min", "max", "rate mean", "meets?",
              "paper (approx)");
  const auto row = [&](const char* name, const ScenarioResult& r,
                       const char* paper) {
    const auto s = bench::stats_of(r.snr_db);
    const auto rate = bench::stats_of(r.rate_mbps);
    std::printf("%-22s %8.1f dB %7.1f %9.1f | %8.0f Mbps %8s | %s\n", name,
                s.mean, s.min, s.max, rate.mean,
                rate.mean >= required_mbps ? "yes" : "NO", paper);
  };
  row("LOS", los, "SNR ~25 dB, ~6.8 Gbps, yes");
  row("LOS blocked by hand", hand, ">=14 dB drop, rate fails");
  row("LOS blocked by head", head, "~20 dB drop, rate fails");
  row("LOS blocked by body", body, "~20-25 dB drop, rate fails");
  row("best NLOS (swept)", nlos, "~16 dB below LOS, rate fails");

  const double hand_drop = bench::stats_of(los.snr_db).mean -
                           bench::stats_of(hand.snr_db).mean;
  const double nlos_drop = bench::stats_of(los.snr_db).mean -
                           bench::stats_of(nlos.snr_db).mean;
  std::printf("\nmean drop: hand %.1f dB (paper: >14), best-NLOS %.1f dB "
              "(paper: ~16)\n",
              hand_drop, nlos_drop);
  return 0;
}
