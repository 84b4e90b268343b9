#include <phy/link.hpp>

#include <algorithm>
#include <cmath>
#include <numbers>

#include <rf/noise.hpp>
#include <rf/propagation.hpp>

namespace movr::phy {

rf::DbmPower link_noise_floor(const LinkConfig& config) {
  return rf::noise_floor(config.bandwidth_hz, config.noise_figure);
}

rf::DbmPower wideband_power(std::span<const PathComponent> components,
                            const LinkConfig& config,
                            rf::Decibels extra_loss) {
  // Average the received *power* over frequency points spanning the channel:
  // a 2.16 GHz-wide OFDM signal (or a swept measurement tone) experiences
  // the frequency-averaged fade, not a single-tone null. Across the band
  // only the electrical phase of each path moves appreciably.
  const int samples = std::max(config.frequency_samples, 1);
  double total_mw = 0.0;
  for (int k = 0; k < samples; ++k) {
    const double offset =
        samples == 1
            ? 0.0
            : ((static_cast<double>(k) + 0.5) / static_cast<double>(samples) -
               0.5) *
                  config.bandwidth_hz;
    const double lambda = rf::wavelength(config.carrier_hz + offset);
    std::complex<double> field{0.0, 0.0};
    for (const PathComponent& c : components) {
      const double electrical_phase =
          -2.0 * std::numbers::pi * c.length_m / lambda;
      field += c.base * std::polar(1.0, electrical_phase);
    }
    total_mw += std::norm(field);
  }
  total_mw /= static_cast<double>(samples);
  if (total_mw <= 0.0) {
    return rf::DbmPower{};  // no energy: the -300 dBm sentinel
  }
  return rf::DbmPower::from_milliwatts(total_mw) - extra_loss;
}

rf::DbmPower received_power(const RadioNode& tx, const RadioNode& rx,
                            std::span<const channel::Path> paths,
                            const LinkConfig& config) {
  return path_power(
      tx.tx_power(), paths,
      [&](double az) { return tx.response_toward(az); },
      [&](double az) { return rx.response_toward(az); }, config,
      config.implementation_loss);
}

rf::Decibels link_snr(const RadioNode& tx, const RadioNode& rx,
                      std::span<const channel::Path> paths,
                      const LinkConfig& config) {
  return received_power(tx, rx, paths, config) - link_noise_floor(config);
}

}  // namespace movr::phy
