#include <core/occlusion_forecaster.hpp>

#include <algorithm>
#include <cmath>

#include <channel/path.hpp>

namespace movr::core {

bool OcclusionForecaster::los_blocked(const Scene& scene,
                                      geom::Vec2 headset) const {
  const geom::Vec2 ap = scene.ap().node().position();
  const auto paths = scene.paths_view(ap, headset);
  for (const channel::Path& path : *paths) {
    if (path.is_los()) {
      return path.is_blocked(config_.blocked_threshold_db);
    }
  }
  // No LOS path at all (fully absorbed / outside the solver's loss cap):
  // that is as blocked as it gets.
  return true;
}

std::optional<LinkRiskWindow> OcclusionForecaster::forecast(
    const Scene& scene, sim::TimePoint now) {
  ++counters_.forecasts;
  if (tracker_.sample_count() < config_.min_samples ||
      !tracker_.has_velocity_fit()) {
    // Short or degenerate history pins predict() to "unmoved" — that is a
    // non-prediction, not a forecast of a stationary player. Skip.
    ++counters_.no_fit_skips;
    return std::nullopt;
  }

  std::optional<LinkRiskWindow> honest;
  const double speed = tracker_.velocity().norm();
  if (speed >= config_.min_speed_mps &&
      !los_blocked(scene, tracker_.predict(sim::Duration{0}))) {
    // Walk the extrapolated trajectory; a window spans the first
    // contiguous run of blocked steps.
    const long steps = std::max<long>(1, config_.horizon / config_.step);
    long first = -1;
    long last = -1;
    for (long k = 1; k <= steps; ++k) {
      const sim::Duration ahead = config_.step * k;
      const bool risky = los_blocked(scene, tracker_.predict(ahead));
      if (risky && first < 0) {
        first = k;
        last = k;
      } else if (risky && last == k - 1) {
        last = k;
      } else if (!risky && first >= 0) {
        break;  // window closed; later re-blockage is next tick's problem
      }
    }
    if (first >= 0) {
      // Confidence: a fuller history fits a better velocity, and a longer
      // contiguous blocked run is harder to explain away as fit noise.
      const double sample_factor =
          std::min(1.0, static_cast<double>(tracker_.sample_count()) /
                            static_cast<double>(config_.tracker.history));
      const double run_factor =
          0.6 + 0.4 * static_cast<double>(last - first + 1) /
                    static_cast<double>(steps);
      LinkRiskWindow window;
      window.t_start = now + config_.step * first;
      window.t_end = now + config_.step * (last + 1);
      window.confidence = std::min(1.0, sample_factor * run_factor);
      honest = window;
    }
  }

  if (config_.chaos_rate > 0.0) {
    std::uniform_real_distribution<double> coin{0.0, 1.0};
    if (coin(chaos_rng_) < config_.chaos_rate) {
      // Invert the honest answer: suppress a real window, or fabricate a
      // confident one out of clear air. At chaos_rate 1.0 every forecast
      // is wrong — the containment gates must still hold.
      ++counters_.chaos_garbled;
      if (honest.has_value()) {
        honest.reset();
      } else {
        LinkRiskWindow spurious;
        spurious.t_start = now + std::chrono::milliseconds{20};
        spurious.t_end = now + std::chrono::milliseconds{40};
        spurious.confidence = 0.9;
        honest = spurious;
      }
    }
  }

  if (honest.has_value()) {
    ++counters_.windows_issued;
  }
  return honest;
}

}  // namespace movr::core
