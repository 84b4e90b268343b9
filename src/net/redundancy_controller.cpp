#include <net/redundancy_controller.hpp>

#include <algorithm>
#include <cmath>

namespace movr::net {

void RedundancyController::on_tick(bool stressed, bool predicted) {
  if (stressed || predicted) {
    // The hold spans this tick plus `stress_hold_ticks` quiet ones. A
    // predicted-only tick arms the same hold: protection must be in place
    // before the forecast burst, and if the forecast was wrong the hold
    // simply expires.
    stress_hold_ = config_.stress_hold_ticks + 1;
    if (stressed) {
      ++counters_.stressed_ticks;
    } else {
      ++counters_.predicted_ticks;
    }
  } else if (stress_hold_ > 0) {
    --stress_hold_;
  }
}

void RedundancyController::on_transmission(bool data_lost) {
  const double x = data_lost ? 1.0 : 0.0;
  loss_ewma_ += config_.ewma_alpha * (x - loss_ewma_);
  if (any_history_ && prev_lost_) {
    burst_ewma_ += config_.ewma_alpha * (x - burst_ewma_);
  }
  prev_lost_ = data_lost;
  any_history_ = true;
}

double RedundancyController::expected_burst_mpdus() const {
  // Mean geometric run length with continuation probability burst_ewma_,
  // floored so a vanishing estimate still means "bursts of one".
  return 1.0 / std::max(0.05, 1.0 - burst_ewma_);
}

FecParams RedundancyController::plan(bool keyframe) {
  const bool stressed = stress_hold_ > 0;
  if (!active_) {
    if (loss_ewma_ > config_.enable_loss || stressed) {
      active_ = true;
      ++counters_.enables;
    }
  } else if (loss_ewma_ < config_.disable_loss && !stressed) {
    active_ = false;
    ++counters_.disables;
  }
  if (!active_) {
    ++counters_.frames_unprotected;
    return FecParams{};
  }
  ++counters_.frames_protected;

  std::uint32_t k;
  std::uint32_t depth;
  if (stressed) {
    // Proactive maximum: the burst is happening *now*; the EWMA lags it.
    k = config_.k_min;
    depth = config_.depth_max;
  } else {
    const double span =
        std::max(1e-9, config_.heavy_loss - config_.enable_loss);
    const double t = std::clamp(
        (loss_ewma_ - config_.enable_loss) / span, 0.0, 1.0);
    const double k_f = static_cast<double>(config_.k_max) +
                       t * (static_cast<double>(config_.k_min) -
                            static_cast<double>(config_.k_max));
    k = std::max(config_.k_min,
                 static_cast<std::uint32_t>(std::lround(k_f)));
    depth = std::clamp(
        static_cast<std::uint32_t>(std::ceil(expected_burst_mpdus())), 1u,
        config_.depth_max);
  }
  if (keyframe) {
    k = std::max(config_.keyframe_k_min, k / 2);
  }
  return FecParams{k, depth};
}

int RedundancyController::retx_budget() const {
  // The FEC-for-ARQ budget trade only pays in the light-loss regime, where
  // parity really does absorb the common single losses. Near heavy loss —
  // or while the stress signal is up — holes outnumber parity and every
  // retransmission matters, so the full budget stays in force.
  const bool light = loss_ewma_ < config_.heavy_loss && stress_hold_ == 0;
  return (active_ && light) ? config_.retx_budget_protected
                            : config_.retx_budget_unprotected;
}

void RedundancyController::reset() {
  counters_ = Counters{};
  loss_ewma_ = 0.0;
  burst_ewma_ = 0.0;
  prev_lost_ = false;
  any_history_ = false;
  active_ = false;
  stress_hold_ = 0;
}

}  // namespace movr::net
