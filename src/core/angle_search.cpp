#include <core/angle_search.hpp>

#include <utility>

#include <rf/codebook.hpp>

namespace movr::core {

AngleSearchConfig make_search_config(double step_deg) {
  AngleSearchConfig config;
  config.reflector_codebook = rf::paper_sector_codebook(step_deg);
  config.ap_codebook = rf::paper_sector_codebook(step_deg);
  return config;
}

// ---------------------------------------------------------------------
// SearchPhase: the run machinery both phases share
// ---------------------------------------------------------------------

template <class Result>
SearchPhase<Result>::SearchPhase(sim::Simulator& simulator,
                                 sim::ControlChannel& control, Scene& scene,
                                 MovrReflector& reflector,
                                 AngleSearchConfig config, std::mt19937_64 rng)
    : simulator_{simulator},
      scene_{scene},
      reflector_{reflector},
      config_{std::move(config)},
      rng_{rng},
      control_{control} {}

template <class Result>
void SearchPhase<Result>::start(Callback done) {
  done_ = std::move(done);
  started_ = simulator_.now();
  restore_gain_code_ = reflector_.front_end().gain_code();
  // Hard deadline: whatever happens to the control plane, the caller gets
  // its callback, so the simulator is never left idle mid-protocol.
  watchdog_id_ = simulator_.after(config_.watchdog, [this] {
    finish(false, "watchdog deadline expired before the sweep finished");
  });
  begin();
  simulator_.after(config_.command_wait, [this] { step(0); });
}

template <class Result>
void SearchPhase<Result>::send_command(sim::ControlMessage message) {
  ++result_.bt_commands;
  control_.send(reflector_.control_name(), std::move(message),
                [this](bool delivered) {
                  if (delivered) {
                    consecutive_failed_commands_ = 0;
                  } else {
                    ++consecutive_failed_commands_;
                  }
                });
}

template <class Result>
void SearchPhase<Result>::step(std::size_t index) {
  if (done_fired_) {
    return;
  }
  if (consecutive_failed_commands_ >= config_.abort_after_failed_commands) {
    finish(false, "control channel down: " +
                      std::to_string(consecutive_failed_commands_) +
                      " consecutive commands unacked");
    return;
  }
  if (index < config_.reflector_codebook.size()) {
    measure(index);
    return;
  }
  close();
  after(config_.command_wait, [this] { finish(true, {}); });
}

template <class Result>
void SearchPhase<Result>::finish(bool completed, std::string failure_reason) {
  if (done_fired_) {
    return;
  }
  done_fired_ = true;
  simulator_.cancel(watchdog_id_);
  result_.completed = completed;
  result_.failure_reason = std::move(failure_reason);
  result_.duration = simulator_.now() - started_;
  if (done_) {
    done_(result_);
  }
}

template class SearchPhase<IncidenceResult>;
template class SearchPhase<ReflectionResult>;

// ---------------------------------------------------------------------
// IncidenceSearch
// ---------------------------------------------------------------------

void IncidenceSearch::begin() {
  // Arm the reflector: conservative gain, modulation on.
  send_gain_code(config_.search_gain_code);
  send_command({"modulate", 1.0, 0});
}

void IncidenceSearch::measure(std::size_t reflector_index) {
  const double theta1 = config_.reflector_codebook[reflector_index];
  send_command({"both_angles", theta1, 0});

  // After the command settles, the AP sweeps its own beam electronically
  // and measures the f1+f2 backscatter at each angle. The sweep is fast
  // (microseconds per angle); its full cost is charged before moving on.
  after(config_.command_wait, [this, reflector_index, theta1] {
    for (const double theta2 : config_.ap_codebook) {
      scene_.ap().node().array().steer(theta2);
      const rf::DbmPower reading = scene_.ap().measure_backscatter(
          scene_.backscatter_at_ap(reflector_), rng_);
      ++result_.measurements;
      if (reading > result_.best_power) {
        result_.best_power = reading;
        // Record what the protocol *commanded*, not the (possibly stale)
        // state of the reflector: a dropped Bluetooth message degrades the
        // measurement, exactly as it would in hardware.
        result_.reflector_angle = theta1;
        result_.ap_angle = theta2;
      }
    }
    const auto sweep_cost =
        (config_.steer_settle + config_.tone_dwell) *
        static_cast<std::int64_t>(config_.ap_codebook.size());
    after(sweep_cost, [this, reflector_index] { step(reflector_index + 1); });
  });
}

void IncidenceSearch::close() {
  // Disarm and lock in the winners.
  send_command({"modulate", 0.0, 0});
  send_gain_code(restore_gain_code_);
  send_command({"rx_angle", result_.reflector_angle, 0});
  scene_.ap().node().array().steer(result_.ap_angle);
}

// ---------------------------------------------------------------------
// ReflectionSearch
// ---------------------------------------------------------------------

void ReflectionSearch::begin() {
  // Arm a conservative, always-stable gain so the relayed signal is audible
  // at the headset for every candidate angle; the gain controller
  // re-optimises once the beam is locked.
  send_gain_code(config_.search_gain_code);
}

void ReflectionSearch::measure(std::size_t index) {
  const double theta = config_.reflector_codebook[index];
  send_command({"tx_angle", theta, 0});

  after(config_.command_wait + config_.snr_report_time, [this, index, theta] {
    const auto via = scene_.via_snr(reflector_);
    const rf::Decibels estimate = scene_.headset().observe(via.snr, rng_);
    ++result_.measurements;
    if (estimate > result_.best_snr) {
      result_.best_snr = estimate;
      result_.reflector_tx_angle = theta;
    }
    step(index + 1);
  });
}

void ReflectionSearch::close() {
  send_command({"tx_angle", result_.reflector_tx_angle, 0});
  send_gain_code(restore_gain_code_);
}

}  // namespace movr::core
