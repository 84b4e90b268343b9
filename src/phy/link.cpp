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

std::size_t band_samples(const LinkConfig& config) {
  return static_cast<std::size_t>(std::max(config.frequency_samples, 1));
}

void band_phasors(std::span<const PathComponent> components,
                  const LinkConfig& config,
                  std::span<std::complex<double>> out) {
  // Average the received *power* over frequency points spanning the channel:
  // a 2.16 GHz-wide OFDM signal (or a swept measurement tone) experiences
  // the frequency-averaged fade, not a single-tone null. Across the band
  // only the electrical phase of each path moves appreciably.
  //
  // Point k sits at carrier + ((k + 0.5) / samples - 0.5) * bandwidth, so
  // the points are bandwidth / samples apart and a path's phase
  // -2 pi L f / c advances by the same step from each point to the next:
  // two sincos per path, then one complex multiply per further point.
  const std::size_t samples = band_samples(config);
  const std::size_t n = components.size();
  const double samples_d = static_cast<double>(samples);
  const double first_hz =
      samples == 1 ? config.carrier_hz
                   : config.carrier_hz +
                         (0.5 / samples_d - 0.5) * config.bandwidth_hz;
  const double first_lambda = rf::wavelength(first_hz);
  const double step_rad_per_m = -2.0 * std::numbers::pi *
                                (config.bandwidth_hz / samples_d) /
                                rf::kSpeedOfLight;
  for (std::size_t p = 0; p < n; ++p) {
    const double length = components[p].length_m;
    std::complex<double> phasor =
        std::polar(1.0, -2.0 * std::numbers::pi * length / first_lambda);
    out[p] = phasor;
    if (samples > 1) {
      const std::complex<double> step =
          std::polar(1.0, step_rad_per_m * length);
      for (std::size_t k = 1; k < samples; ++k) {
        phasor *= step;
        out[k * n + p] = phasor;
      }
    }
  }
}

rf::DbmPower band_power(std::span<const PathComponent> components,
                        std::span<const std::complex<double>> phasors,
                        rf::Decibels extra_loss) {
  const std::size_t n = components.size();
  if (n == 0) {
    return rf::DbmPower{};  // no paths, no energy: the -300 dBm sentinel
  }
  const std::size_t samples = phasors.size() / n;
  double total_mw = 0.0;
  for (std::size_t k = 0; k < samples; ++k) {
    std::complex<double> field{0.0, 0.0};
    for (std::size_t p = 0; p < n; ++p) {
      field += components[p].base * phasors[k * n + p];
    }
    total_mw += std::norm(field);
  }
  total_mw /= static_cast<double>(samples);
  if (total_mw <= 0.0) {
    return rf::DbmPower{};  // no energy: the -300 dBm sentinel
  }
  return rf::DbmPower::from_milliwatts(total_mw) - extra_loss;
}

rf::DbmPower wideband_power(std::span<const PathComponent> components,
                            const LinkConfig& config,
                            rf::Decibels extra_loss) {
  // Per-thread scratch that keeps its capacity: a warmed call does not
  // allocate.
  thread_local std::vector<std::complex<double>> phasors;
  phasors.resize(band_samples(config) * components.size());
  band_phasors(components, config, phasors);
  return band_power(components, phasors, extra_loss);
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
