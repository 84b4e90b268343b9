#include <baseline/strategies.hpp>

#include <cmath>

#include <geom/angle.hpp>
#include <phy/beam_sweep.hpp>
#include <phy/sls.hpp>

namespace movr::baseline {

// ---------------------------------------------------------------------
// FixedBeamStrategy
// ---------------------------------------------------------------------

FixedBeamStrategy::FixedBeamStrategy(core::Scene& scene) : scene_{scene} {
  scene_.aim_direct();
  ap_steer_ = scene_.ap().node().array().steering();
  headset_orientation_ = scene_.headset().node().orientation();
  headset_steer_ = scene_.headset().node().array().steering();
}

rf::Decibels FixedBeamStrategy::on_frame() {
  // Re-assert the frozen mounting and steering (another strategy under
  // test may share the scene in back-to-back runs).
  scene_.ap().node().array().steer(ap_steer_);
  scene_.headset().node().set_orientation(headset_orientation_);
  scene_.headset().node().array().steer(headset_steer_);
  return scene_.direct_snr();
}

// ---------------------------------------------------------------------
// DirectTrackingStrategy
// ---------------------------------------------------------------------

rf::Decibels DirectTrackingStrategy::on_frame() {
  scene_.aim_direct();
  return scene_.direct_snr();
}

// ---------------------------------------------------------------------
// SlsTrackingStrategy
// ---------------------------------------------------------------------

sim::Duration SlsTrackingStrategy::training_airtime() const {
  phy::SlsConfig sls;
  sls.initiator_sectors =
      phy::sectors_for_coverage(160.0, config_.sector_step_deg) * 4;
  sls.responder_sectors = sls.initiator_sectors;
  return phy::sls_duration(sls);
}

rf::Decibels SlsTrackingStrategy::on_frame() {
  if (!trained_ ||
      simulator_.now() - last_training_ >= config_.interval) {
    // One SLS: coarse sectors over all faces, then a BRP-like refinement.
    // Airtime is ~1 ms — invisible next to an 11 ms frame, so it is charged
    // as within-frame overhead rather than an outage.
    const auto paths = scene_.paths_view(scene_.ap().node().position(),
                                         scene_.headset().node().position());
    phy::sweep_all_directions(scene_.ap().node(), scene_.headset().node(),
                              *paths, scene_.config().link,
                              /*nlos_only=*/false, config_.sector_step_deg,
                              config_.refine_step_deg);
    trained_ = true;
    last_training_ = simulator_.now();
    ++sweeps_;
  }
  return scene_.direct_snr();
}

// ---------------------------------------------------------------------
// NlosSweepStrategy
// ---------------------------------------------------------------------

NlosSweepStrategy::NlosSweepStrategy(sim::Simulator& simulator,
                                     core::Scene& scene, Config config)
    : simulator_{simulator},
      scene_{scene},
      config_{config},
      codebook_{rf::make_codebook(geom::deg_to_rad(10.0),
                                  geom::deg_to_rad(170.0),
                                  geom::deg_to_rad(config.step_deg))} {}

sim::Duration NlosSweepStrategy::sweep_cost() const {
  return config_.combo_dwell *
         static_cast<std::int64_t>(codebook_.size() * codebook_.size());
}

void NlosSweepStrategy::start_sweep() {
  sweeping_ = true;
  ++sweeps_;
  simulator_.after(sweep_cost(), [this] {
    // The sweep completes against the world as it stands *now*. The headset
    // first picks the array face toward the AP (coverage selection), then
    // both ends sweep their steerable sector.
    scene_.headset().node().face_toward(scene_.ap().node().position());
    const auto paths = scene_.paths_view(scene_.ap().node().position(),
                                         scene_.headset().node().position());
    phy::sweep_best_beams(scene_.ap().node(), scene_.headset().node(), *paths,
                          scene_.config().link, codebook_, codebook_);
    sweeping_ = false;
    ever_swept_ = true;
    last_sweep_end_ = simulator_.now();
    post_sweep_snr_ = scene_.direct_snr().value();
  });
}

rf::Decibels NlosSweepStrategy::on_frame() {
  if (!ever_swept_ && !sweeping_) {
    // Initial association: align on whatever is best right now.
    start_sweep();
  }
  const rf::Decibels snr = scene_.direct_snr();

  if (!sweeping_ && ever_swept_ &&
      simulator_.now() - last_sweep_end_ >= config_.cooldown &&
      std::abs(snr.value() - post_sweep_snr_) >=
          config_.resweep_delta.value()) {
    start_sweep();
  }
  return snr;
}

}  // namespace movr::baseline
