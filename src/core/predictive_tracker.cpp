#include <core/predictive_tracker.hpp>

#include <geom/angle.hpp>

namespace movr::core {

void PredictiveTracker::add_sample(sim::TimePoint now, geom::Vec2 position) {
  samples_.push_back(Sample{now, position});
  while (samples_.size() > config_.history) {
    samples_.pop_front();
  }
}

bool PredictiveTracker::has_velocity_fit() const {
  if (samples_.size() < 2) {
    return false;
  }
  // Degenerate time window (all samples at one instant) fits no slope.
  return sim::to_seconds(samples_.back().when - samples_.front().when) > 1e-9;
}

geom::Vec2 PredictiveTracker::velocity() const {
  if (samples_.size() < 2) {
    return {0.0, 0.0};
  }
  // Least-squares slope of position vs time over the window: robust to the
  // per-sample tracking jitter, unlike a first/last difference.
  const double n = static_cast<double>(samples_.size());
  double t_mean = 0.0;
  geom::Vec2 p_mean{};
  for (const Sample& s : samples_) {
    t_mean += sim::to_seconds(s.when);
    p_mean += s.position;
  }
  t_mean /= n;
  p_mean = p_mean / n;
  double tt = 0.0;
  geom::Vec2 tp{};
  for (const Sample& s : samples_) {
    const double dt = sim::to_seconds(s.when) - t_mean;
    tt += dt * dt;
    tp += (s.position - p_mean) * dt;
  }
  if (tt < 1e-12) {
    return {0.0, 0.0};
  }
  return tp / tt;
}

geom::Vec2 PredictiveTracker::predict(sim::Duration horizon) const {
  if (samples_.empty()) {
    return {0.0, 0.0};
  }
  return samples_.back().position + velocity() * sim::to_seconds(horizon);
}

std::optional<PredictiveTracker::Command> PredictiveTracker::on_pose(
    sim::TimePoint now, geom::Vec2 position, const MovrReflector& reflector,
    std::mt19937_64& rng) {
  // Noiseless tracking draws nothing: std::normal_distribution needs a
  // positive sigma.
  geom::Vec2 jitter{};
  if (config_.tracking_noise_m > 0.0) {
    std::normal_distribution<double> noise{0.0, config_.tracking_noise_m};
    jitter = {noise(rng), noise(rng)};
  }
  add_sample(now, position + jitter);

  const geom::Vec2 at_actuation = predict(config_.actuation_delay);
  const double predicted_angle =
      reflector.to_local((at_actuation - reflector.position()).heading());
  const double current = reflector.front_end().tx_array().steering();
  if (geom::angular_distance(predicted_angle, current) <
      config_.retarget_threshold_rad) {
    return std::nullopt;
  }
  return Command{predicted_angle, at_actuation};
}

}  // namespace movr::core
