#include <arena/interference.hpp>

#include <cmath>
#include <complex>
#include <cstdint>
#include <vector>

#include <phy/link.hpp>
#include <phy/radio.hpp>

namespace movr::arena {

namespace {

/// Per-thread scratch of interference_at_headset. Capacity is kept across
/// calls, so a warmed call does not allocate.
struct Scratch {
  std::vector<double> ap_mw;         // foreign-AP term of each aggressor
  std::vector<std::uint8_t> done;    // aggressor's AP term evaluated
  std::vector<double> amplitude;     // per path of the current AP group
  std::vector<rf::PhasedArray::Look> look;    // AP array's look per path
  std::vector<std::complex<double>> rx;       // headset response per path
  std::vector<std::complex<double>> phasors;  // phy::band_phasors table
  std::vector<phy::PathComponent> components;
};

bool foreign(const Interferer& aggressor, const core::Scene& victim) {
  return aggressor.scene != nullptr && aggressor.scene != &victim;
}

/// APs that reach a headset over the same paths with the same power, and
/// whose arrays see each path's departure with the same Look.
bool same_ap_group(const phy::RadioNode& a, const phy::RadioNode& b) {
  return a.position() == b.position() && a.tx_power() == b.tx_power() &&
         a.orientation() == b.orientation() &&
         a.array().shares_look(b.array());
}

}  // namespace

rf::DbmPower interference_at_headset(const core::Scene& victim,
                                     std::span<const Interferer> aggressors,
                                     const InterferenceConfig& config) {
  thread_local Scratch s;
  const phy::RadioNode& headset = victim.headset().node();
  const geom::Vec2 victim_ap = victim.ap().node().position();
  const phy::LinkConfig& link = victim.config().link;

  // Pass 1: the foreign APs' terms. A foreign AP transmits concurrently;
  // its beam (steered for its own user) leaks into the victim's aperture
  // over the victim room's paths. Aggressors on one physical AP (same
  // position, power, orientation and array model, ~N/K of them) reach the
  // headset over the same paths and see each path leave at the same local
  // angle, so the path set, the headset's response per path, the AP
  // array's Look per path and the band phasors are evaluated once per AP;
  // each aggressor adds only its own beam's Horner sum per path. Every
  // term equals phy::received_power's bits.
  s.ap_mw.assign(aggressors.size(), 0.0);
  s.done.assign(aggressors.size(), 0);
  for (std::size_t i = 0; i < aggressors.size(); ++i) {
    if (!foreign(aggressors[i], victim) || s.done[i] != 0) {
      continue;
    }
    const phy::RadioNode& ap = aggressors[i].scene->ap().node();
    const geom::Vec2 ap_position = ap.position();
    const rf::DbmPower tx_power = ap.tx_power();
    const bool concurrent =
        (ap_position - victim_ap).norm() >= config.same_ap_epsilon_m;
    if (!concurrent) {
      continue;  // same AP: airtime-multiplexed, not interfering
    }
    const auto paths = victim.paths_view(ap_position, headset.position());
    const std::size_t n = paths->size();
    s.amplitude.resize(n);
    s.look.resize(n);
    s.rx.resize(n);
    s.phasors.resize(phy::band_samples(link) * n);
    s.components.resize(n);
    for (std::size_t p = 0; p < n; ++p) {
      const channel::Path& path = (*paths)[p];
      s.amplitude[p] = std::sqrt((tx_power - path.loss).milliwatts());
      s.look[p] = ap.array().look(ap.to_local(path.departure_azimuth));
      s.rx[p] = headset.response_toward(path.arrival_azimuth);
      s.components[p].length_m = path.length_m;
    }
    phy::band_phasors(s.components, link, s.phasors);
    const auto add_ap_term = [&](std::size_t j) {
      const rf::PhasedArray& array = aggressors[j].scene->ap().node().array();
      for (std::size_t p = 0; p < n; ++p) {
        s.components[p].base =
            s.amplitude[p] * phy::array_response(array, s.look[p]) * s.rx[p];
      }
      s.ap_mw[j] =
          phy::band_power(s.components, s.phasors, link.implementation_loss)
              .milliwatts();
      s.done[j] = 1;
    };
    add_ap_term(i);
    for (std::size_t j = i + 1; j < aggressors.size(); ++j) {
      if (foreign(aggressors[j], victim) &&
          same_ap_group(aggressors[j].scene->ap().node(), ap)) {
        add_ap_term(j);
      }
    }
  }

  // Pass 2: sum in aggressor order, AP term then reflector term, so the
  // total keeps the per-aggressor summation order.
  double total_mw = 0.0;
  for (std::size_t i = 0; i < aggressors.size(); ++i) {
    const Interferer& aggressor = aggressors[i];
    if (!foreign(aggressor, victim)) {
      continue;
    }
    total_mw += s.ap_mw[i];
    const core::Scene& other = *aggressor.scene;
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
              [&](double az) { return headset.response_toward(az); }, link,
              victim.config().rx_side_loss)
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
