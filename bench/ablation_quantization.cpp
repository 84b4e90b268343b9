// Ablation: phase-shifter resolution.
//
// The prototype uses analog HMC-933 shifters driven by a DAC; commercial
// arrays use 2-6 bit digital shifters. This bench quantifies what that
// choice costs in realised array gain and in end-to-end link SNR.
#include <cstdio>
#include <vector>

#include <geom/angle.hpp>
#include <phy/link.hpp>
#include <rf/phased_array.hpp>

#include "bench_util.hpp"

int main() {
  using namespace movr;
  using geom::deg_to_rad;

  bench::print_header("Ablation — phase-shifter quantisation");

  std::printf("%-12s %16s %18s %14s\n", "resolution", "mean gain loss",
              "worst gain loss", "LOS SNR");

  for (const int bits : {0, 6, 4, 3, 2, 1}) {
    // Array-level loss vs the analog reference, over the steering sector.
    rf::PhasedArray::Config analog_cfg;
    rf::PhasedArray::Config quant_cfg;
    quant_cfg.phase_bits = bits;
    rf::PhasedArray analog{analog_cfg};
    rf::PhasedArray quant{quant_cfg};
    std::vector<double> losses;
    for (double deg = 40.0; deg <= 140.0; deg += 1.0) {
      const double steer = deg_to_rad(deg);
      analog.steer(steer);
      quant.steer(steer);
      losses.push_back(analog.gain(steer).value() - quant.gain(steer).value());
    }
    const auto loss = bench::stats_of(losses);

    // End-to-end: LOS link in the paper room with quantised arrays at both
    // ends.
    auto scene = bench::paper_scene({3.3, 2.4}, false);
    core::ApRadio::Config ap_cfg;
    ap_cfg.array.phase_bits = bits;
    core::HeadsetRadio::Config hs_cfg;
    hs_cfg.array.phase_bits = bits;
    core::Scene qscene{channel::Room{5.0, 5.0},
                       core::ApRadio{{0.4, 0.4}, deg_to_rad(45.0), ap_cfg},
                       core::HeadsetRadio{{3.3, 2.4}, 0.0, hs_cfg}};
    qscene.aim_direct();
    const double snr = qscene.direct_snr().value();

    std::printf("%-12s %13.2f dB %15.2f dB %11.1f dB\n",
                bits == 0 ? "analog" : (std::to_string(bits) + "-bit").c_str(),
                loss.mean, loss.max, snr);
  }

  std::printf("\nreading: 3+ bits cost a fraction of a dB — the analog "
              "shifters are a convenience,\nnot a requirement; 1-2 bit "
              "shifters measurably flatten the beam.\n");
  return 0;
}
