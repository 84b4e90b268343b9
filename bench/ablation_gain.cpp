// Ablation: adaptive current-knee gain control (Section 4.2) vs the two
// fixed-gain alternatives.
//
//  * fixed-safe: a gain low enough to be stable at EVERY beam pair —
//    wastes SNR whenever the leakage allows more;
//  * fixed-max: the amplifier's full gain — saturates/oscillates wherever
//    the isolation dips below it, turning the relay into a jammer;
//  * adaptive: the paper's ramp, which tracks the per-configuration knee.
//
// A leaky front-end build is used so the isolation floor actually crosses
// the amplifier's range (the regime Fig. 7 warns about).
#include <cstdio>
#include <vector>

#include <sim/rng.hpp>

#include "bench_util.hpp"

int main() {
  using namespace movr;
  using geom::deg_to_rad;

  sim::RngRegistry rngs{13};

  // Leaky build: board-level coupling 10 dB worse than the default unit.
  hw::ReflectorFrontEnd::Config leaky;
  leaky.leakage.board_coupling = rf::Decibels{-14.0};

  struct Policy {
    const char* name;
    bool adaptive;
    std::uint32_t fixed_code;
  };
  // fixed-safe: worst-case isolation over the grid minus margin -> ~30 dB.
  // fixed-max: DAC full scale.
  const std::vector<Policy> policies = {
      {"adaptive (paper)", true, 0},
      {"fixed-safe 30 dB", false, 170},
      {"fixed-max 45 dB", false, 255},
  };

  bench::print_header(
      "Ablation — adaptive vs fixed amplifier gain (leaky front end)");
  std::printf("%-20s %12s %12s %14s %12s\n", "policy", "mean SNR",
              "worst SNR", "saturated cfgs", "mean gain");

  for (const Policy& policy : policies) {
    std::vector<double> snrs;
    std::vector<double> gains;
    int saturated = 0;
    int configs = 0;
    for (int run = 0; run < 30; ++run) {
      auto rng = rngs.stream("gain-abl", static_cast<std::uint64_t>(run));
      auto scene = bench::paper_scene({0.0, 0.0}, false);
      auto& reflector = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0),
                                            leaky);
      geom::Vec2 pos;
      double local;
      do {
        pos = scene.room().random_interior_point(rng, 0.8);
        scene.headset().node().set_position(pos);
        local = scene.true_reflector_angle_to_headset(reflector);
      } while (local < deg_to_rad(40.0) || local > deg_to_rad(140.0) ||
               geom::distance(pos, reflector.position()) < 1.2);

      reflector.front_end().steer_rx(
          scene.true_reflector_angle_to_ap(reflector));
      reflector.front_end().steer_tx(local);
      scene.aim_via(reflector);

      if (policy.adaptive) {
        core::GainController::run(reflector.front_end(),
                                  scene.reflector_input(reflector), rng);
      } else {
        reflector.front_end().set_gain_code(policy.fixed_code);
      }
      const auto via = scene.via_snr(reflector);
      ++configs;
      saturated += !via.usable;
      snrs.push_back(via.snr.value());
      gains.push_back(reflector.front_end().amplifier_gain().value());
    }
    const auto snr = bench::stats_of(snrs);
    const auto gain = bench::stats_of(gains);
    std::printf("%-20s %9.1f dB %9.1f dB %11d/%d %9.1f dB\n", policy.name,
                snr.mean, snr.min, saturated, configs, gain.mean);
  }

  std::printf("\nreading: fixed-max oscillates in low-isolation geometries "
              "(garbage at the headset);\nfixed-safe gives up SNR everywhere; "
              "the adaptive ramp gets both right.\n");
  return 0;
}
