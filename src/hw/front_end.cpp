#include <hw/front_end.hpp>

#include <hw/stability.hpp>

namespace movr::hw {

ReflectorFrontEnd::ReflectorFrontEnd(const Config& config)
    : config_{config},
      rx_{config.array},
      tx_{config.array},
      amplifier_{config.amplifier},
      leakage_{config.leakage},
      sensor_{config.sensor},
      gain_dac_{config.gain_dac} {
  set_gain_code(0);
}

void ReflectorFrontEnd::power_cycle() {
  rx_ = rf::PhasedArray{config_.array};
  tx_ = rf::PhasedArray{config_.array};
  modulating_ = false;
  set_gain_code(0);
}

void ReflectorFrontEnd::inject_gain_sag(rf::Decibels sag) {
  amplifier_.set_gain_derating(sag);
  // Re-command the current code so the delivered gain reflects the sag.
  set_gain_code(gain_code_);
}

void ReflectorFrontEnd::set_gain_code(std::uint32_t code) {
  gain_code_ = std::min(code, gain_dac_.max_code());
  // The DAC output maps linearly (in dB) onto the attenuator's range:
  // code 0 = minimum gain, full scale = maximum gain.
  const double span = config_.amplifier.max_gain.value() -
                      config_.amplifier.min_gain.value();
  const double fraction =
      gain_dac_.output(gain_code_) / gain_dac_.config().full_scale;
  amplifier_.set_gain(
      rf::Decibels{config_.amplifier.min_gain.value() + span * fraction});
}

rf::Decibels ReflectorFrontEnd::isolation() const {
  const double tx = tx_.steering();
  const double rx = rx_.steering();
  if (tx != isolation_tx_ || rx != isolation_rx_) {
    isolation_ = leakage_.isolation(tx, rx);
    isolation_tx_ = tx;
    isolation_rx_ = rx;
  }
  return isolation_;
}

ReflectorFrontEnd::State ReflectorFrontEnd::process(rf::DbmPower input) const {
  State state;
  state.isolation = isolation();

  const rf::Decibels gain = amplifier_.gain();
  if (!is_loop_stable(gain, state.isolation)) {
    // Oscillation: the amplifier rails at its saturated output regardless
    // of input, emitting garbage and drawing saturation-level current.
    state.stable = false;
    state.saturated = true;
    const auto railed = amplifier_.drive(
        config_.amplifier.saturation_power - gain);  // drive fully into sat
    state.output = railed.output;
    state.sideband_output = rf::DbmPower{};  // garbage, not a clean sideband
    state.effective_gain = state.output - input;
    state.supply_current_a = railed.supply_current_a;
    return state;
  }

  // Stable loop: regeneration boosts the signal the amplifier sees.
  const rf::Decibels boost = regeneration_boost(gain, state.isolation);
  const auto op = amplifier_.drive(input + boost);
  state.output = op.output;
  state.effective_gain = state.output - input;
  state.saturated = op.saturated;
  state.supply_current_a = op.supply_current_a;
  state.sideband_output =
      modulating_ ? state.output + config_.modulation_sideband_loss
                  : rf::DbmPower{};
  if (modulating_) {
    // 50% duty cycle halves the *signal-dependent* part of the current.
    const double quiescent = config_.amplifier.quiescent_current_a;
    state.supply_current_a =
        quiescent + 0.5 * (state.supply_current_a - quiescent);
  }
  return state;
}

double ReflectorFrontEnd::read_current(rf::DbmPower input,
                                       std::mt19937_64& rng,
                                       int samples) const {
  return sensor_.read_averaged(process(input).supply_current_a, samples, rng);
}

}  // namespace movr::hw
