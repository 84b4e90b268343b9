// Backscatter beam-alignment protocol (paper Section 4.1).
//
// The reflector can neither transmit nor receive, so the AP measures for
// it. Incidence phase: the reflector sets BOTH beams to a candidate angle
// theta1 and on-off-modulates its amplifier at f2; the AP transmits a tone
// at f1, sweeps its own beam theta2, and measures the power coming back at
// f1 + f2 (separable from its self-leakage, which stays at f1). The
// (theta1, theta2) argmax aligns AP and reflector. Reflection phase: with
// the incidence side locked, the reflector sweeps its TX beam while the
// headset reports SNR estimates; the argmax points the reflector at the
// headset.
//
// Both phases run event-driven over the simulator: every reflector
// reconfiguration is a Bluetooth exchange (milliseconds), every AP-side
// re-steer is electronic (sub-microsecond), so the protocol's running time
// — the quantity Section 6 worries about — falls out of the simulation.
#pragma once

#include <functional>
#include <random>
#include <string>
#include <vector>

#include <core/scene.hpp>
#include <rf/units.hpp>
#include <sim/control_channel.hpp>
#include <sim/simulator.hpp>

namespace movr::core {

struct AngleSearchConfig {
  /// Candidate reflector angles (array-local radians). Default: the paper's
  /// 40..140 degree sector at 1 degree steps.
  std::vector<double> reflector_codebook;
  /// Candidate AP angles for the incidence phase.
  std::vector<double> ap_codebook;
  /// Conservative gain code used while searching: ~40 dB on the default
  /// front end, ~10 dB below the worst-case isolation of the leakage model,
  /// so the loop is stable at every beam combination while the backscatter
  /// sideband stays well above the AP's residual self-leakage. The gain
  /// controller re-optimises the gain after alignment.
  std::uint32_t search_gain_code{170};
  /// Wait after each Bluetooth command before trusting the new state
  /// (covers latency + jitter + link-layer retries).
  sim::Duration command_wait{std::chrono::milliseconds{10}};
  /// AP-side electronic re-steer settle time.
  sim::Duration steer_settle{std::chrono::microseconds{1}};
  /// Tone dwell per backscatter power measurement.
  sim::Duration tone_dwell{std::chrono::microseconds{10}};
  /// Dwell + report latency per headset SNR estimate (reflection phase).
  sim::Duration snr_report_time{std::chrono::milliseconds{1}};
  /// Hard deadline: the search ALWAYS completes by now + watchdog, with
  /// completed=false and a reason if it had to give up. Keeps a wedged
  /// control plane from leaving the simulator idle forever.
  sim::Duration watchdog{std::chrono::seconds{30}};
  /// Consecutive unacked Bluetooth commands before the search concludes
  /// the control channel is down and aborts early (completed=false).
  int abort_after_failed_commands{5};
};

struct IncidenceResult {
  double reflector_angle{0.0};  // theta1*, array-local radians
  double ap_angle{0.0};         // theta2*, array-local radians
  rf::DbmPower best_power{};
  sim::Duration duration{0};
  int bt_commands{0};
  int measurements{0};
  bool completed{false};
  /// Why the search gave up, when completed == false.
  std::string failure_reason;
};

struct ReflectionResult {
  double reflector_tx_angle{0.0};  // array-local radians
  rf::Decibels best_snr{-300.0};
  sim::Duration duration{0};
  int bt_commands{0};
  int measurements{0};
  bool completed{false};
  /// Why the search gave up, when completed == false.
  std::string failure_reason;
};

/// The run machinery both phases share. start() saves the reflector's gain
/// code and arms a hard watchdog; every command is counted, and a streak of
/// unacked ones aborts the search ("control channel down"). Once the last
/// codebook entry is measured the phase sends its closing commands, and the
/// search concludes one command wait later. Whichever way it ends, the
/// callback fires exactly once. A phase supplies the rest: begin() (its
/// arming commands), measure() (one codebook entry, which ends by calling
/// step(index + 1)) and close().
template <class Result>
class SearchPhase {
 public:
  using Callback = std::function<void(const Result&)>;

  SearchPhase(sim::Simulator& simulator, sim::ControlChannel& control,
              Scene& scene, MovrReflector& reflector, AngleSearchConfig config,
              std::mt19937_64 rng);
  // Scheduled events and command callbacks hold `this`.
  SearchPhase(const SearchPhase&) = delete;
  SearchPhase& operator=(const SearchPhase&) = delete;

  /// Begins the search; `done` fires (via the simulator) on completion.
  void start(Callback done);

 protected:
  virtual void begin() = 0;
  virtual void measure(std::size_t index) = 0;
  virtual void close() = 0;

  /// Measures codebook entry `index`, or closes after the last one.
  void step(std::size_t index);
  void send_command(sim::ControlMessage message);
  void send_gain_code(std::uint32_t code) {
    send_command({"gain_code", static_cast<double>(code), 0});
  }
  /// Runs `action` after `delay` unless the search has ended by then.
  template <class Action>
  void after(sim::Duration delay, Action action) {
    simulator_.after(delay, [this, action]() mutable {
      if (!done_fired_) {
        action();
      }
    });
  }

  sim::Simulator& simulator_;
  Scene& scene_;
  MovrReflector& reflector_;
  AngleSearchConfig config_;
  std::mt19937_64 rng_;
  Result result_;
  /// The gain code the reflector had at start(), restored by close().
  std::uint32_t restore_gain_code_{0};

 private:
  void finish(bool completed, std::string failure_reason);

  sim::ControlChannel& control_;
  Callback done_;
  sim::TimePoint started_{};
  sim::EventQueue::EventId watchdog_id_{0};
  int consecutive_failed_commands_{0};
  bool done_fired_{false};
};

/// Phase 1: finds the AP<->reflector alignment. Leaves the reflector's RX
/// beam and the AP's beam at the winning angles, modulation off, and the
/// gain restored to its pre-search code.
class IncidenceSearch final : public SearchPhase<IncidenceResult> {
 public:
  using SearchPhase::SearchPhase;

 private:
  void begin() override;
  void measure(std::size_t reflector_index) override;
  void close() override;
};

/// Phase 2: points the reflector's TX beam at the headset. Precondition:
/// incidence alignment done (AP illuminating the reflector).
class ReflectionSearch final : public SearchPhase<ReflectionResult> {
 public:
  using SearchPhase::SearchPhase;

 private:
  void begin() override;
  void measure(std::size_t index) override;
  void close() override;
};

/// Default codebooks: the paper's sector sweep at `step_deg` resolution.
AngleSearchConfig make_search_config(double step_deg = 1.0);

}  // namespace movr::core
