// Ablation: deployment band — the prototype's 24 GHz ISM carrier vs the
// 60 GHz 802.11ad band a product would ship on.
//
// Physics that moves: free-space loss grows 8 dB (20 log10(60/24)), oxygen
// absorption appears (negligible at room scale), and — for the same
// physical aperture — a 60 GHz array packs more elements. The bench shows
// both views: same element count (pessimistic) and same aperture size
// (realistic), and verifies the blockage story is band-independent.
#include <cstdio>
#include <vector>

#include <rf/band.hpp>
#include <rf/propagation.hpp>
#include <sim/rng.hpp>

#include "bench_util.hpp"

namespace {

using namespace movr;
using geom::deg_to_rad;

struct BandRun {
  const char* label;
  rf::Band band;
  int elements;
};

}  // namespace

int main() {
  sim::RngRegistry rngs{19};

  bench::print_header("Ablation — 24 GHz prototype band vs 60 GHz 802.11ad");
  std::printf("FSPL delta at 4 m: %.1f dB; oxygen absorption at 60 GHz over "
              "6 m: %.3f dB\n\n",
              rf::free_space_path_loss(4.0, rf::k60GhzWigig.carrier_hz).value() -
                  rf::free_space_path_loss(4.0,
                                           rf::k24GhzPrototype.carrier_hz)
                      .value(),
              rf::atmospheric_absorption(6.0, 60.0e9).value());

  const std::vector<BandRun> runs = {
      {"24 GHz, 10-el arrays", rf::k24GhzPrototype, 10},
      {"60 GHz, 10-el arrays", rf::k60GhzWigig, 10},
      {"60 GHz, 25-el arrays (same aperture)", rf::k60GhzWigig, 25},
  };

  std::printf("%-38s %10s %12s %12s %12s\n", "configuration", "LOS SNR",
              "hand block", "via MoVR", "beamwidth");
  for (const BandRun& run : runs) {
    std::vector<double> los_v;
    std::vector<double> hand_v;
    std::vector<double> movr_v;
    double beamwidth_deg = 0.0;
    for (int trial = 0; trial < 12; ++trial) {
      auto rng = rngs.stream(run.label, static_cast<std::uint64_t>(trial));

      core::Scene::Config scene_config;
      scene_config.link.carrier_hz = run.band.carrier_hz;
      scene_config.link.bandwidth_hz = run.band.bandwidth_hz;
      rf::PhasedArray::Config array;
      array.elements = run.elements;
      core::ApRadio::Config ap_config;
      ap_config.array = array;
      core::HeadsetRadio::Config hs_config;
      hs_config.array = array;
      hw::ReflectorFrontEnd::Config fe_config;
      fe_config.array = array;
      fe_config.leakage.array = array;

      core::Scene scene{channel::Room{5.0, 5.0},
                        core::ApRadio{{0.4, 0.4}, deg_to_rad(45.0), ap_config},
                        core::HeadsetRadio{{0.0, 0.0}, 0.0, hs_config},
                        scene_config};
      auto& reflector =
          scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0), fe_config);
      beamwidth_deg = geom::rad_to_deg(
          scene.ap().node().array().beamwidth_3db());

      geom::Vec2 pos;
      double local;
      do {
        pos = scene.room().random_interior_point(rng, 0.9);
        scene.headset().node().set_position(pos);
        local = scene.true_reflector_angle_to_headset(reflector);
      } while (local < deg_to_rad(40.0) || local > deg_to_rad(140.0) ||
               geom::distance(pos, reflector.position()) < 1.2 ||
               geom::distance(pos, scene.ap().node().position()) < 1.2);

      scene.aim_direct();
      los_v.push_back(scene.direct_snr().value());

      scene.room().add_obstacle(channel::make_hand(
          pos, scene.ap().node().position() - pos));
      hand_v.push_back(scene.direct_snr().value());

      scene.calibrate_reflector(reflector, rng);
      scene.aim_via(reflector);
      movr_v.push_back(scene.via_snr(reflector).snr.value());
    }
    std::printf("%-38s %7.1f dB %9.1f dB %9.1f dB %9.1f deg\n", run.label,
                bench::stats_of(los_v).mean, bench::stats_of(hand_v).mean,
                bench::stats_of(movr_v).mean, beamwidth_deg);
  }

  std::printf("\nreading: at 60 GHz with the same element count the whole "
              "budget slides ~8 dB down,\nbut the same physical aperture "
              "buys it back with narrower beams; blockage deltas and\nthe "
              "reflector's rescue are unchanged — the paper's design "
              "carries to the product band.\n");
  return 0;
}
