// Quickstart: build a room, drop in an AP, a headset and one MoVR
// reflector, block the line of sight, and watch the reflector bridge it.
//
//   $ ./example_quickstart
//
// This is the smallest end-to-end use of the library's public API.
#include <cstdio>

#include <core/movr.hpp>
#include <phy/mcs.hpp>
#include <sim/rng.hpp>
#include <vr/requirements.hpp>

int main() {
  using namespace movr;
  using geom::deg_to_rad;

  // A 5 x 5 m office; the game PC's mmWave AP sits in a corner, the player
  // stands mid-room.
  core::Scene scene{channel::Room{5.0, 5.0},
                    core::ApRadio{{0.4, 0.4}, deg_to_rad(45.0)},
                    core::HeadsetRadio{{3.0, 2.0}, 0.0}};

  // Stick one MoVR reflector to the far corner wall.
  auto& reflector = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0));

  // Calibrate it: point its RX beam at the AP, its TX beam at the headset
  // (here from known geometry; examples/deploy_and_calibrate.cpp runs the
  // paper's actual search protocol), then let the gain controller ramp the
  // amplifier to just below the leakage limit.
  std::mt19937_64 rng{1};
  const auto gain = scene.calibrate_reflector(reflector, rng);
  std::printf("reflector calibrated: amplifier gain %.1f dB (%s)\n",
              gain.final_gain.value(),
              gain.knee_found ? "leakage-limited" : "hardware-limited");

  const double required = vr::kHtcVive.required_mbps();
  const auto report = [&](const char* label, rf::Decibels snr) {
    const double rate = phy::rate_mbps(snr);
    std::printf("%-28s SNR %6.1f dB -> %7.0f Mbps  %s\n", label, snr.value(),
                rate, rate >= required ? "VR OK" : "GLITCH");
  };

  // 1. Clear line of sight.
  scene.aim_direct();
  report("clear LOS:", scene.direct_snr());

  // 2. The player raises a hand in front of the headset.
  scene.room().add_obstacle(channel::make_hand(
      scene.headset().node().position(),
      scene.ap().node().position() - scene.headset().node().position()));
  report("hand up, direct link:", scene.direct_snr());

  // 3. Same blockage, but the AP beams to the reflector instead.
  scene.aim_via(reflector);
  report("hand up, via MoVR:", scene.via_snr(reflector).snr);

  std::printf("\nrequired for the HTC Vive's raw stream: %.0f Mbps\n",
              required);
  return 0;
}
