#include <core/beam_tracker.hpp>

#include <geom/angle.hpp>

namespace movr::core {

BeamTracker::Result BeamTracker::retarget(Scene& scene,
                                          MovrReflector& reflector,
                                          std::mt19937_64& rng,
                                          const Config& config) {
  Result result;

  // Tracked (noisy) headset position, as the VR runtime reports it.
  // Noiseless tracking draws nothing: std::normal_distribution needs a
  // positive sigma.
  geom::Vec2 jitter{};
  if (config.tracking_noise_m > 0.0) {
    std::normal_distribution<double> noise{0.0, config.tracking_noise_m};
    jitter = {noise(rng), noise(rng)};
  }
  const geom::Vec2 tracked = scene.headset().node().position() + jitter;
  const double geometric =
      reflector.to_local((tracked - reflector.position()).heading());

  reflector.front_end().steer_tx(geometric);
  result.reflector_tx_angle = geometric;
  result.snr = scene.via_snr(reflector).snr;
  result.duration += config.command_wait;
  result.bt_commands += 1;

  if (config.refine) {
    const double span = geom::deg_to_rad(config.refine_span_deg);
    const double step = geom::deg_to_rad(config.refine_step_deg);
    for (double candidate = geometric - span; candidate <= geometric + span;
         candidate += step) {
      reflector.front_end().steer_tx(candidate);
      const rf::Decibels snr = scene.via_snr(reflector).snr;
      result.duration += config.command_wait + config.snr_report_time;
      result.bt_commands += 1;
      if (snr > result.snr) {
        result.snr = snr;
        result.reflector_tx_angle = candidate;
      }
    }
    reflector.front_end().steer_tx(result.reflector_tx_angle);
    result.duration += config.command_wait;
    result.bt_commands += 1;
  }
  return result;
}

}  // namespace movr::core
