#include <vr/predictive.hpp>

#include <channel/path.hpp>

namespace movr::vr {

bool PredictiveMovrStrategy::los_actually_blocked() const {
  const geom::Vec2 ap = scene_.ap().node().position();
  const geom::Vec2 headset = scene_.headset().node().position();
  const auto paths = scene_.paths_view(ap, headset);
  for (const channel::Path& path : *paths) {
    if (path.is_los()) {
      return path.is_blocked(config_.forecaster.blocked_threshold_db);
    }
  }
  return true;
}

rf::Decibels PredictiveMovrStrategy::on_frame() {
  const sim::TimePoint now = simulator_.now();
  alt_.reset();

  // Feed the pose as the tracking system measured it: any injected bias
  // rides along, and forecasts made from it are honestly wrong.
  forecaster_.on_pose(now, scene_.headset().node().position() + pose_bias_);
  const auto window = forecaster_.forecast(scene_, now);
  if (window.has_value()) {
    manager_.on_risk_window(*window);
  }

  // Misprediction accounting against ground truth (evaluation only; no
  // protocol decision reads this).
  if (manager_.risk_active()) {
    if (!window_open_) {
      window_open_ = true;
      window_hit_ = false;
    }
    if (los_actually_blocked()) {
      window_hit_ = true;
    }
  } else if (window_open_) {
    window_open_ = false;
    if (!window_hit_) {
      ++mispredictions_;
    }
  }

  // Offer the alternate beam while the window is open; the aperture split
  // costs the serving path its penalty for exactly those frames.
  if (manager_.risk_active()) {
    alt_ = manager_.speculative_alt_snr();
  }
  rf::Decibels snr = manager_.on_frame();
  if (alt_.has_value()) {
    snr -= config_.split_penalty;
  }
  return snr;
}

std::optional<PredictiveLinkStats> PredictiveMovrStrategy::predictive_stats()
    const {
  PredictiveLinkStats stats;
  stats.risk_windows = manager_.stats().risk_windows;
  stats.proactive_handovers = manager_.stats().proactive_handovers;
  // A window still open at session end counts against the forecaster only
  // if it never hit.
  stats.mispredictions =
      mispredictions_ + ((window_open_ && !window_hit_) ? 1 : 0);
  stats.forecasts = forecaster_.counters().forecasts;
  stats.chaos_garbled = forecaster_.counters().chaos_garbled;
  return stats;
}

}  // namespace movr::vr
