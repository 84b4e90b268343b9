// Deployment: the one-object API a downstream integrator starts from.
//
// Owns the simulator, the Bluetooth control channel and the scene; wires
// every reflector's control endpoint; runs the paper's full calibration
// sequence (incidence search -> reflection search -> gain ramp) per
// reflector; and plays sessions against the calibrated system. Everything
// it does can also be done with the lower-level pieces directly (the
// examples show both styles).
#pragma once

#include <memory>
#include <vector>

#include <core/angle_search.hpp>
#include <core/gain_control.hpp>
#include <core/scene.hpp>
#include <sim/control_channel.hpp>
#include <sim/rng.hpp>
#include <sim/simulator.hpp>
#include <vr/motion.hpp>
#include <vr/session.hpp>

namespace movr::vr {

class Deployment {
 public:
  struct Config {
    sim::ControlChannel::Config bluetooth{};
    /// Sweep resolution for both calibration phases, degrees.
    double search_step_deg{1.0};
    std::uint64_t seed{2016};
  };

  Deployment(core::Scene scene, Config config);
  explicit Deployment(core::Scene scene) : Deployment{std::move(scene), Config{}} {}

  core::Scene& scene() { return scene_; }
  sim::Simulator& simulator() { return simulator_; }
  sim::ControlChannel& bluetooth() { return control_; }

  struct ReflectorCalibration {
    core::IncidenceResult incidence;
    core::ReflectionResult reflection;
    core::GainController::Result gain;
  };
  struct CalibrationReport {
    std::vector<ReflectorCalibration> reflectors;
    sim::Duration total{0};
    bool all_usable{true};
  };

  /// Runs the paper's Section 4 sequence for every reflector, blocking
  /// until the simulator drains. Call once at install time.
  CalibrationReport calibrate();

  /// Plays a session with the full MoVR strategy (link manager + pose-aided
  /// retargeting). `motion` and `script` may be null.
  QoeReport play(PlayerMotion* motion, const BlockageScript* script,
                 Session::Config session_config);

 private:
  core::Scene scene_;
  Config config_;
  sim::RngRegistry rngs_;
  sim::Simulator simulator_;
  sim::ControlChannel control_;
};

}  // namespace movr::vr
