// TX-to-RX leakage of the MoVR reflector.
//
// The reflector's transmit and receive arrays sit centimetres apart on one
// board: part of the transmitted signal couples straight back into the
// receive array, closing a feedback loop around the amplifier (Fig. 6).
// Crucially, the coupling depends on where both beams point — Fig. 7 shows
// swings of up to 20 dB as the TX beam steers — which is why the gain
// controller must adapt rather than assume a fixed isolation.
//
// The model is physical: each array's realised gain toward the on-board
// coupling direction (near-endfire, where the sidelobe structure sweeps past
// as the beam steers) plus a deterministic near-field ripple from enclosure
// reflections, on top of a fixed board-level coupling factor.
#pragma once

#include <cstdint>

#include <rf/phased_array.hpp>
#include <rf/units.hpp>

namespace movr::hw {

class LeakageModel {
 public:
  struct Config {
    rf::PhasedArray::Config array{};
    /// Local azimuth (radians) from the TX array toward the RX array.
    /// Near-endfire: the arrays sit side by side on the board.
    double tx_coupling_angle{0.05};
    /// Local azimuth (radians) from the RX array toward the TX array.
    double rx_coupling_angle{2.80};
    /// Board-level coupling between the two apertures (negative dB).
    /// Calibrated with the angles above so the Fig. 7 sweep spans roughly
    /// -80..-50 dB with ~20+ dB swing per RX angle.
    rf::Decibels board_coupling{-24.0};
    /// Compression of the pattern-dependent term (1 = raw array gains).
    double pattern_scale{1.0};
    /// Peak amplitude of the near-field ripple, dB.
    double ripple_amplitude_db{4.0};
    /// Selects the deterministic ripple phases (a property of the build,
    /// not a random draw at run time).
    std::uint64_t ripple_seed{0x5eed};
  };

  LeakageModel() : LeakageModel(Config{}) {}
  explicit LeakageModel(const Config& config);

  const Config& config() const { return config_; }

  /// TX->RX coupling (negative dB, e.g. -62 dB) when the TX beam steers to
  /// `theta_tx_rad` and the RX beam to `theta_rx_rad` (local angles).
  rf::Decibels coupling(double theta_tx_rad, double theta_rx_rad) const;

  /// Isolation L as a positive dB number: -coupling. The stability
  /// criterion of Section 4.2 is amplifier_gain < isolation.
  rf::Decibels isolation(double theta_tx_rad, double theta_rx_rad) const {
    return -coupling(theta_tx_rad, theta_rx_rad);
  }

  /// Minimum isolation over the full (0, pi) x (0, pi) steerable sector,
  /// scanned on a `grid` x `grid` lattice. This is a design-time property
  /// of the hardware build: any amplifier gain below it is stable at EVERY
  /// beam combination, which is what makes the reflector's autonomous
  /// safe-mode floor (core/config_epoch.hpp) provably safe with no RX
  /// chain and no knowledge of where its beams point.
  rf::Decibels worst_case_isolation(int grid = 48) const;

 private:
  Config config_;
  double ripple_phase_[3]{};

  /// Realised gain (dBi) toward `toward` of an array steered to `steering`.
  double steered_gain(double steering, double toward) const;
  /// coupling() from the two arrays' gains toward the coupling directions.
  rf::Decibels coupling_from_gains(double g_tx, double g_rx,
                                   double theta_tx_rad,
                                   double theta_rx_rad) const;
};

}  // namespace movr::hw
