#include <vr/deployment.hpp>

namespace movr::vr {

Deployment::Deployment(core::Scene scene, Config config)
    : scene_{std::move(scene)},
      config_{config},
      rngs_{config.seed},
      simulator_{},
      control_{simulator_, config.bluetooth, rngs_.stream("bluetooth")} {
  // Wires every reflector's control endpoint on the Bluetooth channel.
  for (std::size_t i = 0; i < scene_.reflector_count(); ++i) {
    core::MovrReflector& reflector = scene_.reflector(i);
    control_.attach(reflector.control_name(),
                    [&reflector](const sim::ControlMessage& m) {
                      reflector.handle(m);
                    });
  }
}

Deployment::CalibrationReport Deployment::calibrate() {
  CalibrationReport report;
  const sim::TimePoint started = simulator_.now();
  const auto search_config = core::make_search_config(config_.search_step_deg);

  for (std::size_t i = 0; i < scene_.reflector_count(); ++i) {
    auto& reflector = scene_.reflector(i);
    ReflectorCalibration calibration;

    core::IncidenceSearch incidence{
        simulator_, control_, scene_, reflector, search_config,
        rngs_.stream("incidence", i)};
    incidence.start([&calibration](const core::IncidenceResult& r) {
      calibration.incidence = r;
    });
    simulator_.run();

    scene_.headset().node().face_toward(reflector.position());
    core::ReflectionSearch reflection{
        simulator_, control_, scene_, reflector, search_config,
        rngs_.stream("reflection", i)};
    reflection.start([&calibration](const core::ReflectionResult& r) {
      calibration.reflection = r;
    });
    simulator_.run();

    auto gain_rng = rngs_.stream("gain", i);
    scene_.ap().node().steer_toward(reflector.position());
    calibration.gain = core::GainController::run(
        reflector.front_end(), scene_.reflector_input(reflector), gain_rng);

    report.all_usable =
        report.all_usable && calibration.incidence.completed &&
        calibration.reflection.completed && scene_.via_snr(reflector).usable;
    report.reflectors.push_back(std::move(calibration));
  }
  report.total = simulator_.now() - started;
  return report;
}

QoeReport Deployment::play(PlayerMotion* motion, const BlockageScript* script,
                           Session::Config session_config) {
  MovrStrategy strategy{simulator_, scene_, rngs_.stream("manager")};
  Session session{simulator_, scene_, strategy, motion, script,
                  session_config};
  return session.run();
}

}  // namespace movr::vr
