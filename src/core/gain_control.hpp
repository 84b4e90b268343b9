// Adaptive amplifier-gain control (paper Section 4.2).
//
// The reflector must run its amplifier as hot as possible (SNR) but below
// the TX->RX leakage (stability) — and the leakage moves by ~20 dB with the
// beam angles (Fig. 7). Lacking any receive chain, the controller exploits
// the one observable it has: an amplifier near saturation draws markedly
// more supply current. The algorithm ramps the gain DAC code step by step,
// watching the averaged current-sensor reading, stops at the first
// disproportionate jump (the knee), and backs off just below it.
#pragma once

#include <random>
#include <vector>

#include <hw/front_end.hpp>
#include <rf/units.hpp>
#include <sim/time.hpp>

namespace movr::core {

class GainController {
 public:
  struct Config {
    /// DAC codes advanced per ramp step.
    std::uint32_t code_step{2};
    /// Current-sensor conversions averaged per step.
    int samples_per_step{8};
    /// Per-step current jump that signals the saturation knee, amps.
    /// Must clear the sensor noise (sigma/sqrt(samples)) by a wide margin
    /// but sit well below the amplifier's compression current.
    double knee_threshold_a{0.020};
    /// Codes backed off below the detected knee.
    std::uint32_t backoff_codes{8};
    /// Settling time after a gain change before sampling.
    sim::Duration step_settle{std::chrono::microseconds{100}};
    /// Time per current-sensor conversion.
    sim::Duration sample_time{std::chrono::microseconds{100}};
  };

  struct StepTrace {
    std::uint32_t code{0};
    double gain_db{0.0};
    double current_a{0.0};
  };

  struct Result {
    std::uint32_t final_code{0};
    rf::Decibels final_gain{0.0};
    bool knee_found{false};
    /// Wall-clock cost of the ramp (for the Section 6 latency budget).
    sim::Duration duration{0};
    std::vector<StepTrace> trace;
  };

  /// Runs the ramp on `front_end` while the AP drives it with `input` at
  /// the RX connector. Leaves the front end configured at the chosen code.
  /// Throws std::invalid_argument when `config.code_step` is 0 or
  /// `config.samples_per_step` is < 1.
  static Result run(hw::ReflectorFrontEnd& front_end, rf::DbmPower input,
                    std::mt19937_64& rng, const Config& config);

  static Result run(hw::ReflectorFrontEnd& front_end, rf::DbmPower input,
                    std::mt19937_64& rng) {
    return run(front_end, input, rng, Config{});
  }
};

}  // namespace movr::core
