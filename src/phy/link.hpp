// Link-budget evaluation: from traced paths and steered arrays to received
// power and SNR. This is the function every experiment in the paper reduces
// to: "place radios, steer beams, read the SNR".
#pragma once

#include <cmath>
#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include <channel/path.hpp>
#include <phy/radio.hpp>
#include <rf/units.hpp>

namespace movr::phy {

struct LinkConfig {
  double carrier_hz{24.0e9};       // 24 GHz ISM band, as the prototype
  double bandwidth_hz{2.16e9};     // one 802.11ad channel
  rf::Decibels noise_figure{7.0};
  /// Fixed end-to-end implementation loss (filters, pointing, polarization
  /// mismatch). Calibrates the LOS SNR in the 5x5 m room to the paper's
  /// measured ~25 dB mean (close-to-AP placements reach 30-35 dB, Sec. 5.2)
  /// while keeping far-corner LOS above the max-rate threshold.
  rf::Decibels implementation_loss{11.0};
  /// Frequency points averaged across the channel when summing multipath.
  /// A 2.16 GHz OFDM signal (and a swept measurement tone) sees the
  /// *frequency-averaged* channel, not a single-tone fade: without this,
  /// deterministic single-frequency nulls produce artifacts no wideband
  /// radio would measure. 1 = narrowband (single tone).
  int frequency_samples{8};
};

/// Receiver noise floor for this link configuration.
rf::DbmPower link_noise_floor(const LinkConfig& config);

/// One propagation path reduced to its band-centre complex amplitude (in
/// sqrt-milliwatts, including antenna responses) plus its length, which
/// sets how the phase rotates across the channel.
struct PathComponent {
  std::complex<double> base;
  double length_m{0.0};
};

/// Frequency-averaged received power of a set of path components, minus
/// `extra_loss`. The building block behind path_power.
rf::DbmPower wideband_power(std::span<const PathComponent> components,
                            const LinkConfig& config, rf::Decibels extra_loss);

/// Number of frequency points wideband_power averages over (>= 1).
std::size_t band_samples(const LinkConfig& config);

/// The unit phasor e^{-j 2 pi length / lambda_k} of every component at each
/// of the band's frequency points k: the electrical phase wideband_power
/// gives each path. `out[k * components.size() + p]` is component p's at
/// point k; `out` holds band_samples(config) * components.size() values.
/// Only the components' lengths are read. The points are evenly spaced, so
/// each path's phasors follow from two sincos by a recurrence, within
/// 1e-10 of per-point std::polar for paths up to 120 m.
void band_phasors(std::span<const PathComponent> components,
                  const LinkConfig& config,
                  std::span<std::complex<double>> out);

/// wideband_power with the band phasors precomputed by band_phasors. The
/// phasors depend only on the path lengths, so transmitters that reach one
/// receiver over the same paths (arena interference) share them. Same
/// loop, same result bits as wideband_power.
rf::DbmPower band_power(std::span<const PathComponent> components,
                        std::span<const std::complex<double>> phasors,
                        rf::Decibels extra_loss);

/// Frequency-averaged power delivered over `paths` by a transmitter of
/// `tx_power`, minus `extra_loss`. `tx_response` and `rx_response` map a
/// global azimuth to each end's complex far-field factor. The direct link,
/// the relay hops in movr::core::Scene and arena interference's reflector
/// terms go through here (its foreign-AP terms share their phasors and
/// call band_power directly). It is a header template so callers pass
/// their responses as lambdas without a type-erased call per path;
/// instantiated in the caller's translation unit, its wideband_power call
/// stays an external call, which is where movrbench's traced driver counts
/// phy.link work. The components live in per-thread scratch that keeps its
/// capacity, so a warmed call does not allocate.
template <typename FTx, typename FRx>
rf::DbmPower path_power(rf::DbmPower tx_power,
                        std::span<const channel::Path> paths,
                        FTx&& tx_response, FRx&& rx_response,
                        const LinkConfig& config, rf::Decibels extra_loss) {
  thread_local std::vector<PathComponent> components;
  components.clear();
  for (const channel::Path& path : paths) {
    const double amplitude = std::sqrt((tx_power - path.loss).milliwatts());
    components.push_back({amplitude * tx_response(path.departure_azimuth) *
                              rx_response(path.arrival_azimuth),
                          path.length_m});
  }
  return wideband_power(components, config, extra_loss);
}

/// Received power at `rx` for a transmission from `tx` over `paths`,
/// with both arrays at their current steering. Multipath is summed
/// coherently with deterministic per-path phases from the path lengths.
rf::DbmPower received_power(const RadioNode& tx, const RadioNode& rx,
                            std::span<const channel::Path> paths,
                            const LinkConfig& config);

/// SNR of the same reception.
rf::Decibels link_snr(const RadioNode& tx, const RadioNode& rx,
                      std::span<const channel::Path> paths,
                      const LinkConfig& config);

}  // namespace movr::phy
