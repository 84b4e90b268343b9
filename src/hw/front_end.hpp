// The complete analog front end of a MoVR reflector: RX phased array ->
// variable-gain amplifier -> TX phased array, with TX->RX leakage closing a
// feedback loop around the amplifier, a DAC setting the gain, and a DC
// current sensor as the only diagnostic output.
//
// This class is deliberately *dumb*: it exposes exactly the controls and
// observables the real hardware exposes to the Arduino (beam angles, a gain
// code, an on/off modulation switch, a current reading) and nothing else.
// No RF quantity computed here is readable by the reflector's own control
// code — that constraint is the whole point of the paper's Section 4.
#pragma once

#include <limits>
#include <random>

#include <hw/amplifier.hpp>
#include <hw/current_sensor.hpp>
#include <hw/dac.hpp>
#include <hw/leakage.hpp>
#include <rf/phased_array.hpp>
#include <rf/units.hpp>

namespace movr::hw {

class ReflectorFrontEnd {
 public:
  struct Config {
    rf::PhasedArray::Config array{};
    Amplifier::Config amplifier{};
    LeakageModel::Config leakage{};
    CurrentSensor::Config sensor{};
    Dac::Config gain_dac{};
    /// Power fraction of the first OOK sideband at f1 +/- f2 when the
    /// amplifier is square-wave modulated: (1/pi)^2 per sideband relative
    /// to the unmodulated carrier, ~= -9.9 dB. (Amplitude toggles 0/1, so
    /// the carrier keeps 1/4 of the power and each first sideband 1/pi^2.)
    rf::Decibels modulation_sideband_loss{-9.94};
  };

  ReflectorFrontEnd() : ReflectorFrontEnd(Config{}) {}
  explicit ReflectorFrontEnd(const Config& config);

  const Config& config() const { return config_; }

  // --- controls available to the micro-controller --------------------
  void steer_rx(double local_angle_rad) { rx_.steer(local_angle_rad); }
  void steer_tx(double local_angle_rad) { tx_.steer(local_angle_rad); }
  void set_gain_code(std::uint32_t code);
  void set_modulating(bool on) { modulating_ = on; }

  std::uint32_t gain_code() const { return gain_code_; }
  rf::Decibels amplifier_gain() const { return amplifier_.gain(); }
  bool modulating() const { return modulating_; }
  std::uint32_t max_gain_code() const { return gain_dac_.max_code(); }

  // --- fault hooks (invisible to the controller) -----------------------
  /// Power-cycle: wipes all controller-visible state (beams to boresight,
  /// gain code 0, modulation off), as a brown-out or watchdog reset would.
  /// Physical fault state (sensor bias, amplifier sag) persists — it is in
  /// the silicon, not the registers.
  void power_cycle();
  /// Drifts the current sensor's reading by `bias_a` amps.
  void inject_sensor_bias(double bias_a) { sensor_.set_bias(bias_a); }
  /// Derates the amplifier's delivered gain by `sag` (thermal/aging droop).
  void inject_gain_sag(rf::Decibels sag);
  rf::Decibels gain_sag() const { return amplifier_.gain_derating(); }

  // --- physics (used by the channel, invisible to the controller) ----
  const rf::PhasedArray& rx_array() const { return rx_; }
  const rf::PhasedArray& tx_array() const { return tx_; }

  struct State {
    /// Carrier power leaving the TX array connector (before TX array gain).
    rf::DbmPower output;
    /// Power in one f1+f2 sideband when modulating (no-signal otherwise).
    rf::DbmPower sideband_output;
    rf::Decibels effective_gain;  // closed-loop, incl. regeneration
    rf::Decibels isolation;       // L at the current beam pair
    bool stable{true};
    bool saturated{false};        // compressed: output is garbage
    double supply_current_a{0.0};
  };

  /// Drives the loop with `input` at the RX array connector (i.e. already
  /// including the RX array's gain toward the incoming signal). Const, but
  /// refreshes the isolation cache below: like the Scene that owns it, a
  /// front end is used by one thread at a time.
  State process(rf::DbmPower input) const;

  // --- the controller's only observable -------------------------------
  /// A current-sensor reading for the given drive level.
  double read_current(rf::DbmPower input, std::mt19937_64& rng,
                      int samples = 4) const;

 private:
  Config config_;
  rf::PhasedArray rx_;
  rf::PhasedArray tx_;
  Amplifier amplifier_;
  LeakageModel leakage_;
  CurrentSensor sensor_;
  Dac gain_dac_;
  std::uint32_t gain_code_{0};
  bool modulating_{false};
  // LeakageModel::isolation at the beam pair (isolation_tx_, isolation_rx_).
  // Keyed on the exact steering, so a gain ramp, which calls process() up
  // to ~128 times per pair, evaluates it once. NaN keys never match.
  mutable double isolation_tx_{std::numeric_limits<double>::quiet_NaN()};
  mutable double isolation_rx_{std::numeric_limits<double>::quiet_NaN()};
  mutable rf::Decibels isolation_{};

  rf::Decibels isolation() const;
};

}  // namespace movr::hw
