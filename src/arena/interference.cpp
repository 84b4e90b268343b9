#include <arena/interference.hpp>

#include <cmath>

#include <phy/link.hpp>
#include <phy/radio.hpp>

namespace movr::arena {

rf::DbmPower interference_at_headset(const core::Scene& victim,
                                     std::span<const Interferer> aggressors,
                                     const InterferenceConfig& config) {
  double total_mw = 0.0;
  const phy::RadioNode& headset = victim.headset().node();
  const geom::Vec2 victim_ap = victim.ap().node().position();
  for (const Interferer& aggressor : aggressors) {
    if (aggressor.scene == nullptr || aggressor.scene == &victim) {
      continue;
    }
    const core::Scene& other = *aggressor.scene;
    const geom::Vec2 other_ap = other.ap().node().position();
    if ((other_ap - victim_ap).norm() >= config.same_ap_epsilon_m) {
      // A foreign AP transmits concurrently; its beam (steered for its
      // own user) leaks into the victim's aperture over the victim
      // room's paths.
      const auto paths = victim.paths_view(other_ap, headset.position());
      total_mw += phy::received_power(other.ap().node(), headset, *paths,
                                      victim.config().link)
                      .milliwatts();
    }
    if (aggressor.via_reflector &&
        aggressor.reflector < other.reflector_count()) {
      // The leased reflector re-radiates its amplified output — stable or
      // not, that energy lands in the room; a compressed front end's
      // garbage interferes just as hard.
      const core::MovrReflector& reflector =
          other.reflector(aggressor.reflector);
      const auto state =
          reflector.front_end().process(other.reflector_input(reflector));
      const auto& tx_array = reflector.front_end().tx_array();
      const auto paths =
          victim.paths_view(reflector.position(), headset.position());
      total_mw +=
          phy::path_power(
              state.output, *paths,
              [&](double az) {
                return phy::array_response(tx_array, reflector.to_local(az));
              },
              [&](double az) { return headset.response_toward(az); },
              victim.config().link, victim.config().rx_side_loss)
              .milliwatts();
    }
  }
  return rf::DbmPower::from_milliwatts(total_mw > 0.0 ? total_mw : 1e-30);
}

double sinr_penalty_db(const core::Scene& victim,
                       std::span<const Interferer> aggressors,
                       const InterferenceConfig& config) {
  const double interference_mw =
      interference_at_headset(victim, aggressors, config).milliwatts();
  const double noise_mw =
      phy::link_noise_floor(victim.config().link).milliwatts();
  if (interference_mw <= 1e-29 || noise_mw <= 0.0) {
    return 0.0;
  }
  return 10.0 * std::log10(1.0 + interference_mw / noise_mw);
}

}  // namespace movr::arena
