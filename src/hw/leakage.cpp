#include <hw/leakage.hpp>

#include <algorithm>
#include <cmath>
#include <vector>

#include <geom/angle.hpp>

namespace movr::hw {

LeakageModel::LeakageModel(const Config& config) : config_{config} {
  // Derive three stable ripple phases from the seed (splitmix-style).
  std::uint64_t z = config_.ripple_seed;
  for (double& phase : ripple_phase_) {
    z += 0x9e3779b97f4a7c15ull;
    std::uint64_t x = z;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    x ^= x >> 31;
    phase = static_cast<double>(x % 62832ull) * 1e-4;  // [0, 2*pi)
  }
}

double LeakageModel::steered_gain(double steering, double toward) const {
  rf::PhasedArray array{config_.array};
  array.steer(steering);
  return array.gain(toward).value();
}

rf::Decibels LeakageModel::coupling(double theta_tx_rad,
                                    double theta_rx_rad) const {
  // Realised gain of each steered array toward the coupling direction.
  return coupling_from_gains(
      steered_gain(theta_tx_rad, config_.tx_coupling_angle),
      steered_gain(theta_rx_rad, config_.rx_coupling_angle), theta_tx_rad,
      theta_rx_rad);
}

rf::Decibels LeakageModel::coupling_from_gains(double g_tx, double g_rx,
                                               double theta_tx_rad,
                                               double theta_rx_rad) const {
  // Near-field standing-wave ripple: deterministic in the two angles.
  const double a = config_.ripple_amplitude_db;
  const double ripple =
      a * 0.5 * std::sin(3.1 * theta_tx_rad + 0.9 * theta_rx_rad + ripple_phase_[0]) +
      a * 0.3 * std::sin(7.3 * theta_tx_rad - 1.7 * theta_rx_rad + ripple_phase_[1]) +
      a * 0.2 * std::sin(11.7 * theta_tx_rad + 2.3 * theta_rx_rad + ripple_phase_[2]);

  const double coupling_db = config_.board_coupling.value() +
                             config_.pattern_scale * (g_tx + g_rx) + ripple;
  return rf::Decibels{coupling_db};
}

rf::Decibels LeakageModel::worst_case_isolation(int grid) const {
  const int n = std::max(grid, 2);
  // The steerable sector is the open interval (0, pi); sample strictly
  // inside it (endfire itself is not a commandable beam).
  const double lo = 0.02;
  const double hi = geom::kPi - 0.02;
  const double step = (hi - lo) / static_cast<double>(n - 1);
  // Each array's gain depends on its own steering only: n gains per array,
  // not one per lattice point.
  std::vector<double> angle(static_cast<std::size_t>(n));
  std::vector<double> g_tx(angle.size());
  std::vector<double> g_rx(angle.size());
  for (std::size_t i = 0; i < angle.size(); ++i) {
    angle[i] = lo + step * static_cast<double>(i);
    g_tx[i] = steered_gain(angle[i], config_.tx_coupling_angle);
    g_rx[i] = steered_gain(angle[i], config_.rx_coupling_angle);
  }
  double worst = 1e9;
  for (std::size_t i = 0; i < angle.size(); ++i) {
    for (std::size_t j = 0; j < angle.size(); ++j) {
      const rf::Decibels isolation =
          -coupling_from_gains(g_tx[i], g_rx[j], angle[i], angle[j]);
      worst = std::min(worst, isolation.value());
    }
  }
  return rf::Decibels{worst};
}

}  // namespace movr::hw
