// Link-budget explorer: prints how each term of the mmWave budget moves as
// the player walks away from the AP, and where the 802.11ad MCS ladder
// steps down — a working tour of the rf/, channel/ and phy/ substrates.
//
//   $ ./example_link_budget_explorer
#include <cstdio>

#include <channel/path_solver.hpp>
#include <channel/room.hpp>
#include <geom/angle.hpp>
#include <phy/link.hpp>
#include <phy/mcs.hpp>
#include <rf/noise.hpp>
#include <rf/propagation.hpp>
#include <vr/requirements.hpp>

int main() {
  using namespace movr;

  const phy::LinkConfig link{};
  const channel::Room room{8.0, 5.0};
  const channel::PathSolver solver{room,
                                  {link.carrier_hz, 2, rf::Decibels{60.0}}};

  std::printf("carrier %.0f GHz, bandwidth %.2f GHz, noise floor %.1f dBm, "
              "arrays %.1f dBi\n\n",
              link.carrier_hz / 1e9, link.bandwidth_hz / 1e9,
              phy::link_noise_floor(link).value(),
              rf::PhasedArray{}.peak_gain().value());

  std::printf("%-6s %10s %10s %10s %8s %12s %s\n", "d (m)", "FSPL", "Prx",
              "SNR", "MCS", "rate", "VR?");
  const double required = vr::kHtcVive.required_mbps();
  const geom::Vec2 ap{0.4, 2.5};
  phy::RadioNode tx{ap, 0.0};
  for (double d = 1.0; d <= 7.0; d += 0.5) {
    const geom::Vec2 pos{0.4 + d, 2.5};
    phy::RadioNode rx{pos, geom::kPi};
    tx.steer_toward(pos);
    rx.steer_toward(ap);
    const auto los = solver.line_of_sight(ap, pos);
    const std::vector<channel::Path> paths{los};
    const rf::DbmPower prx = phy::received_power(tx, rx, paths, link);
    const rf::Decibels snr = prx - phy::link_noise_floor(link);
    const phy::McsEntry* mcs = phy::best_mcs(snr);
    std::printf("%-6.1f %7.1f dB %7.1f dBm %7.1f dB %8s %9.0f Mbps %s\n", d,
                rf::free_space_path_loss(d, link.carrier_hz).value(),
                prx.value(), snr.value(),
                mcs != nullptr ? std::to_string(mcs->index).c_str() : "-",
                mcs != nullptr ? mcs->rate_mbps : 0.0,
                (mcs != nullptr && mcs->rate_mbps >= required) ? "yes" : "NO");
  }

  std::printf("\nblockage budget at 3 m (one leg, calibrated losses):\n");
  for (const auto& [name, material] :
       {std::pair{"hand", channel::kHand}, std::pair{"head", channel::kHead},
        std::pair{"body", channel::kBody}}) {
    std::printf("  %-6s insertion loss %4.0f dB\n", name,
                material.insertion_loss.value());
  }
  std::printf("  wall bounce (drywall) %4.0f dB + longer path\n",
              channel::kDrywall.reflection_loss.value());
  return 0;
}
