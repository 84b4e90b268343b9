#include <core/gain_control.hpp>

#include <algorithm>
#include <stdexcept>

namespace movr::core {

GainController::Result GainController::run(hw::ReflectorFrontEnd& front_end,
                                           rf::DbmPower input,
                                           std::mt19937_64& rng,
                                           const Config& config) {
  if (config.code_step == 0) {
    // The code would never leave 0: no knee shows and the ramp never ends.
    throw std::invalid_argument{"GainController: code_step must be > 0"};
  }
  if (config.samples_per_step < 1) {
    // The sensor would still take one conversion per step, while the
    // duration below would charge zero or negative sampling time.
    throw std::invalid_argument{
        "GainController: samples_per_step must be >= 1"};
  }
  Result result;
  const std::uint32_t max_code = front_end.max_gain_code();
  const auto step_cost =
      config.step_settle + config.sample_time * config.samples_per_step;

  front_end.set_gain_code(0);
  double previous_current =
      front_end.read_current(input, rng, config.samples_per_step);
  result.duration += step_cost;
  result.trace.push_back(
      {0, front_end.amplifier_gain().value(), previous_current});

  std::uint32_t code = 0;
  while (code < max_code) {
    code = std::min(code + config.code_step, max_code);
    front_end.set_gain_code(code);
    const double current =
        front_end.read_current(input, rng, config.samples_per_step);
    result.duration += step_cost;
    result.trace.push_back(
        {code, front_end.amplifier_gain().value(), current});

    if (current - previous_current > config.knee_threshold_a) {
      // The knee: saturation (or outright oscillation) sets in within this
      // step. Keep the gain just below it.
      result.knee_found = true;
      const std::uint32_t knee_code = code;
      const std::uint32_t safe_code =
          knee_code > config.backoff_codes ? knee_code - config.backoff_codes
                                           : 0;
      front_end.set_gain_code(safe_code);
      result.final_code = safe_code;
      result.final_gain = front_end.amplifier_gain();
      return result;
    }
    previous_current = current;
  }

  // No knee up to the top of the range: the full gain is safe (leakage is
  // high enough, or the input is too weak to compress the amplifier).
  result.final_code = max_code;
  result.final_gain = front_end.amplifier_gain();
  return result;
}

}  // namespace movr::core
