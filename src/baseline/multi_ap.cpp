#include <baseline/multi_ap.hpp>

#include <algorithm>

#include <phy/link.hpp>

namespace movr::baseline {

rf::Decibels MultiApDeployment::best_snr(core::Scene& scene,
                                         geom::Vec2 headset_position) const {
  scene.headset().node().set_position(headset_position);
  rf::Decibels best{-300.0};
  for (const geom::Vec2 ap_pos : ap_positions) {
    // A candidate AP facing the headset, same hardware as the scene's AP.
    phy::RadioNode candidate{ap_pos, (headset_position - ap_pos).heading(),
                             scene.ap().node().array().config(),
                             scene.ap().node().tx_power()};
    candidate.steer_toward(headset_position);
    scene.headset().node().face_toward(ap_pos);
    const auto paths = scene.paths_view(ap_pos, headset_position);
    const rf::Decibels snr = phy::link_snr(candidate, scene.headset().node(),
                                           *paths, scene.config().link);
    best = std::max(best, snr);
  }
  return best;
}

double MultiApDeployment::cabling_metres(geom::Vec2 pc) const {
  double total = 0.0;
  for (const geom::Vec2 ap : ap_positions) {
    total += geom::distance(pc, ap);
  }
  return total;
}

MultiApDeployment corner_deployment(double width_m, double depth_m,
                                    int count) {
  MultiApDeployment deployment;
  const std::vector<geom::Vec2> spots = {
      {0.3, 0.3},
      {width_m - 0.3, depth_m - 0.3},
      {width_m - 0.3, 0.3},
      {0.3, depth_m - 0.3},
      {width_m / 2.0, 0.3},
      {width_m / 2.0, depth_m - 0.3},
      {0.3, depth_m / 2.0},
      {width_m - 0.3, depth_m / 2.0},
  };
  const int n = std::clamp<int>(count, 0, static_cast<int>(spots.size()));
  deployment.ap_positions.assign(spots.begin(), spots.begin() + n);
  return deployment;
}

}  // namespace movr::baseline
