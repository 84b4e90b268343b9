// Adaptive FEC/ARQ redundancy control from ack history.
//
// The sender cannot see the channel, but it sees every transmission
// resolve: acked or lost. Two EWMAs over that history — the loss rate and
// the loss-after-loss rate (burstiness) — are enough to choose, per frame,
// how much proactive parity to spend and how much reactive retransmission
// budget to keep:
//
//   * Hysteresis, not a threshold: FEC turns on above `enable_loss` and
//     only off again below `disable_loss`, so a loss estimate hovering at
//     the boundary doesn't thrash parity on and off every frame.
//   * Loss rate picks the code rate: k slides from `k_max` (one parity per
//     8 at light loss) to `k_min` (one per 2 near `heavy_loss`).
//   * Burstiness picks the interleave depth: the expected loss-burst length
//     in MPDUs is 1/(1 - P(loss|loss)), and the depth must span it so a
//     whole burst costs each group at most one member.
//   * Keyframes get deeper protection (k halved): an I-frame miss stalls
//     the whole GOP, so it deserves more of the redundancy budget.
//   * Stress is proactive: while the session signals a handover-pending /
//     degraded / fault window (and for `stress_hold_ticks` after), maximum
//     protection applies immediately — the whole point of proactive
//     redundancy is to be in place *before* the ack history can show the
//     burst.
//   * FEC trades against ARQ: while protection is on, the per-frame
//     retransmit budget drops — parity already covers the common single
//     losses, and air spent on deep retransmission of a doomed frame is
//     stolen from the frames behind it.
#pragma once

#include <cstdint>

#include <net/fec.hpp>

namespace movr::net {

class RedundancyController {
 public:
  struct Config {
    /// EWMA weight per resolved transmission.
    double ewma_alpha{0.05};
    /// Hysteresis band: FEC on above `enable_loss`, off below
    /// `disable_loss` (must be < enable_loss).
    double enable_loss{0.02};
    double disable_loss{0.005};
    /// Loss at which protection saturates at `k_min`.
    double heavy_loss{0.15};
    std::uint32_t k_min{2};
    std::uint32_t k_max{8};
    /// Keyframe k floor (k halves for keyframes but never below this).
    std::uint32_t keyframe_k_min{2};
    std::uint32_t depth_max{8};
    /// Retransmit budget per frame while FEC is active / inactive.
    int retx_budget_protected{6};
    int retx_budget_unprotected{8};
    /// Ticks of maximum protection after the stress signal clears (a
    /// handover's correlated loss outlives the mode flag).
    int stress_hold_ticks{9};
  };

  struct Counters {
    std::uint64_t enables{0};
    std::uint64_t disables{0};
    std::uint64_t stressed_ticks{0};
    /// Ticks where only the *predicted* stress signal was set — protection
    /// pre-armed on a forecast, before any real fault.
    std::uint64_t predicted_ticks{0};
    std::uint64_t frames_protected{0};
    std::uint64_t frames_unprotected{0};
  };

  RedundancyController() : RedundancyController{Config{}} {}
  explicit RedundancyController(Config config) : config_{config} {}

  /// Once per frame tick, before plan(): the session's stress signal
  /// (fault window open, LinkManager in kHandoverPending/kDegraded).
  void on_tick(bool stressed) { on_tick(stressed, false); }

  /// Stress plus the forecaster's *predicted* stress: a high-confidence
  /// risk window pre-arms maximum protection before the burst starts (the
  /// whole point — parity must be in the air before the ack history can
  /// show the loss). A wrong prediction costs only the extra parity for
  /// the window plus the hold — never less protection than reactive.
  void on_tick(bool stressed, bool predicted);

  /// One resolved transmission from the ack history (raw channel outcome,
  /// before any FEC recovery credit).
  void on_transmission(bool data_lost);

  /// Protection for the next frame of the given class.
  FecParams plan(bool keyframe);

  /// ARQ retransmit budget for the next frame, of either class.
  int retx_budget() const;

  bool active() const { return active_; }
  bool stressed() const { return stress_hold_ > 0; }
  double loss_estimate() const { return loss_ewma_; }
  /// P(loss | previous transmission lost) — the burstiness EWMA.
  double loss_after_loss() const { return burst_ewma_; }
  /// Expected loss-burst length in MPDUs implied by the burstiness EWMA.
  double expected_burst_mpdus() const;

  const Config& config() const { return config_; }
  const Counters& counters() const { return counters_; }
  void reset();

 private:
  Config config_;
  Counters counters_;
  double loss_ewma_{0.0};
  double burst_ewma_{0.0};
  bool prev_lost_{false};
  bool any_history_{false};
  bool active_{false};
  int stress_hold_{0};
};

}  // namespace movr::net
