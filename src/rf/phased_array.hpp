// Uniform linear phased array (ULA) of patch elements.
//
// This is the antenna on the AP, the headset, and both faces of the MoVR
// reflector. The paper's arrays are PCB patch arrays with ~10 degree beams
// steerable electronically in sub-microseconds; a 10-element half-wavelength
// ULA of 5.5 dBi patches reproduces that beamwidth and a ~15.5 dBi peak.
//
// Local angle convention: the array lies along its local x axis, elements at
// x_i = i * spacing. Angles are measured CCW from that axis, so boresight is
// 90 degrees and the steerable sector is (0, 180) — matching the 40..140
// degree axes of the paper's Figs. 7 and 8. Angles in (180, 360) are behind
// the ground plane.
#pragma once

#include <complex>
#include <vector>

#include <rf/phase_shifter.hpp>
#include <rf/units.hpp>

namespace movr::rf {

class PhasedArray {
 public:
  struct Config {
    int elements{10};
    double spacing_wavelengths{0.5};
    /// Peak gain of one patch element, toward its broadside.
    Decibels element_gain{5.5};
    /// Element power-pattern exponent: pattern ~ cos^exponent(angle from
    /// broadside). 1.2 approximates a microstrip patch.
    double element_exponent{1.2};
    /// Attenuation of radiation behind the ground plane.
    Decibels front_to_back{30.0};
    /// Residual scattering floor relative to peak: even a deep pattern null
    /// leaks this much (enclosure reflections, element mismatch).
    Decibels scattering_floor{-35.0};
    /// Phase-shifter resolution; 0 = analog (the HMC-933 prototype).
    int phase_bits{0};
  };

  PhasedArray() : PhasedArray(Config{}) {}
  explicit PhasedArray(const Config& config);

  /// Never changes for an array in place: there is no setter, a RadioNode
  /// builds its array once, and ReflectorFrontEnd builds (and power_cycle
  /// rebuilds) its arrays only from its own config, which has no setter
  /// either. So an array's realised pattern is a function of steering()
  /// alone, and core::Scene's hop memos key an array's state on its
  /// steering bits without the config.
  const Config& config() const { return config_; }

  /// Points the main beam at `local_angle_rad` (radians, boresight = pi/2).
  /// Models electronic steering: per-element phase commands through the
  /// phase shifters. Sub-microsecond in hardware; the simulator charges
  /// Config-independent fixed time for it at the protocol layer. A steer
  /// whose wrapped angle has the current steering's bits is a no-op: the
  /// weights already realise it.
  void steer(double local_angle_rad);

  double steering() const { return steering_; }

  /// Realised power gain (dBi) toward `local_angle_rad` with the current
  /// steering, including element pattern, array factor, quantisation error
  /// and the scattering floor.
  Decibels gain(double local_angle_rad) const;
  /// The same gain from `field_at_angle`, which must be field(local_angle_rad)
  /// — for callers that need both and evaluate the array factor once.
  Decibels gain(double local_angle_rad,
                std::complex<double> field_at_angle) const;

  /// Gain at the steering angle with ideal phases: element gain + 10 log N.
  Decibels peak_gain() const;

  /// Half-power beamwidth (radians) at broadside: 0.886 * lambda / (N * d).
  double beamwidth_3db() const;

  /// Complex far-field amplitude (normalised to peak = 1) toward the angle —
  /// exposed so the channel can sum multipath coherently. Agrees with the
  /// per-element sum (1/N) sum_i e^{j(i psi + phase_i)} to within 1e-12.
  std::complex<double> field(double local_angle_rad) const;

  /// The steering-independent part of the response toward one local
  /// angle: the array factor's base z = e^{j kd cos(angle)} and the scale
  /// sqrt(N x element pattern gain) that turns the normalised field into
  /// the response's amplitude. Arrays for which shares_look() holds compute
  /// the same Look toward every angle, whatever their steering, so a caller
  /// evaluating several of them toward one angle computes it once.
  struct Look {
    std::complex<double> z;
    double scale{0.0};
  };
  Look look(double local_angle_rad) const;
  /// Look::scale toward the angle, for callers that evaluate field(angle).
  double response_scale(double local_angle_rad) const;

  /// True when `other`'s Look toward every angle equals this array's: all
  /// config fields but phase_bits, which only shapes the steering, match.
  bool shares_look(const PhasedArray& other) const;

  /// field() toward a precomputed Look, with the same result bits as from
  /// the angle it was computed for.
  std::complex<double> field(const Look& look) const;

  /// Complex far-field response from field() and response_scale() toward
  /// one angle: amplitude sqrt(linear gain()), phase of the field. Computed
  /// in the amplitude domain — scale x field while |field|^2 is at or above
  /// the scattering floor's power, the field's phase at the floored
  /// magnitude below it — and within 1e-12 relative of
  /// sqrt(gain(angle, field).linear()) x field / |field|.
  std::complex<double> response(std::complex<double> field_at_angle,
                                double scale) const;

 private:
  Config config_;
  PhaseShifter shifter_;
  double steering_{1.5707963267948966};  // boresight
  /// e^{j phase_i} of each element's realised phase at steering_, refreshed
  /// by refresh_weights().
  std::vector<std::complex<double>> weights_;
  /// Amplitude-domain constants of the config, for response_scale() and
  /// response(): sqrt(N x element gain) in front of and behind the ground
  /// plane, the element pattern's floor, and the array factor's floor as
  /// power and amplitude.
  double front_scale_{0.0};
  double back_scale_{0.0};
  double pattern_floor_{0.0};
  double field_floor_power_{0.0};
  double field_floor_{0.0};

  void refresh_weights();
  std::complex<double> array_base(double local_angle_rad) const;
  std::complex<double> horner(std::complex<double> z) const;
  double element_pattern_db(double local_angle_rad) const;
};

}  // namespace movr::rf
