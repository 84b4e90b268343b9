// arena::interference_at_headset shares the victim-side work (path set,
// headset response per path, the AP array's Look per path, band phasors)
// among aggressors on one AP.
// These tests pin that sharing to the per-aggressor sum it replaces: every
// foreign AP's phy::received_power plus every leased reflector's
// phy::path_power term, added in aggressor order — bit for bit.
#include <arena/interference.hpp>

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include <core/scene.hpp>
#include <geom/angle.hpp>
#include <phy/link.hpp>
#include <phy/radio.hpp>

namespace movr::arena {
namespace {

using movr::geom::deg_to_rad;

constexpr geom::Vec2 kCorners[4] = {
    {0.4, 0.4}, {7.6, 0.4}, {7.6, 7.6}, {0.4, 7.6}};

/// An 8x8 m room with one reflector per wall midpoint; the AP sits in
/// corner `ap` and the user's headset at `user`, beams pointed at each
/// other.
core::Scene user_scene(int ap, geom::Vec2 user,
                       core::ApRadio::Config ap_config = {}) {
  core::Scene scene{
      channel::Room{8.0, 8.0},
      core::ApRadio{kCorners[ap], deg_to_rad(45.0 + 90.0 * ap), ap_config},
      core::HeadsetRadio{user, 0.0}};
  scene.add_reflector({4.0, 7.7}, deg_to_rad(265.0));
  scene.add_reflector({7.7, 4.0}, deg_to_rad(175.0));
  scene.add_reflector({0.3, 4.0}, deg_to_rad(355.0));
  scene.add_reflector({4.0, 0.3}, deg_to_rad(85.0));
  scene.ap().node().steer_toward(user);
  scene.headset().node().face_toward(kCorners[ap]);
  return scene;
}

/// Points the user's AP at reflector `r` and aims the reflector from the AP
/// to the headset with gain code `code`, as a granted lease does.
void ride_reflector(core::Scene& scene, std::size_t r, std::uint32_t code) {
  core::MovrReflector& reflector = scene.reflector(r);
  reflector.front_end().steer_rx(scene.true_reflector_angle_to_ap(reflector));
  reflector.front_end().steer_tx(
      scene.true_reflector_angle_to_headset(reflector));
  reflector.front_end().set_gain_code(code);
  scene.ap().node().steer_toward(reflector.position());
}

/// One aggressor at a time, as interference_at_headset did before it
/// shared the victim-side work per AP.
rf::DbmPower per_aggressor_sum(const core::Scene& victim,
                               const std::vector<Interferer>& aggressors,
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
      const auto paths = victim.paths_view(other_ap, headset.position());
      total_mw += phy::received_power(other.ap().node(), headset, *paths,
                                      victim.config().link)
                      .milliwatts();
    }
    if (aggressor.via_reflector &&
        aggressor.reflector < other.reflector_count()) {
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

struct Cell {
  std::vector<core::Scene> scenes;

  Cell() {
    // Victim on AP 0; aggressors on APs 0 (same AP), 1 (three users, one
    // with its power backed off), 2 and 3, two of them via reflectors.
    scenes.reserve(8);
    scenes.push_back(user_scene(0, {2.1, 1.7}));
    scenes.push_back(user_scene(0, {1.2, 2.8}));
    scenes.push_back(user_scene(1, {5.9, 1.4}));
    scenes.push_back(user_scene(1, {6.3, 2.6}));
    scenes.push_back(user_scene(1, {5.2, 2.2}));
    scenes.push_back(user_scene(2, {6.1, 5.8}));
    scenes.push_back(user_scene(3, {1.9, 6.0}));
    scenes.push_back(user_scene(1, {4.8, 1.1}));
    scenes[4].ap().node().set_tx_power(rf::DbmPower{-3.0});
    ride_reflector(scenes[5], 1, 180);
    ride_reflector(scenes[6], 2, 220);
  }

  const core::Scene& victim() const { return scenes[0]; }

  std::vector<Interferer> aggressors() const {
    std::vector<Interferer> out;
    for (std::size_t u = 1; u < scenes.size(); ++u) {
      out.push_back({&scenes[u], false, 0});
    }
    out[4].via_reflector = true;  // scenes[5]
    out[4].reflector = 1;
    out[5].via_reflector = true;  // scenes[6]
    out[5].reflector = 2;
    return out;
  }
};

TEST(ArenaInterference, SharedPerApEqualsPerAggressorSum) {
  const Cell cell;
  const InterferenceConfig config;
  std::vector<Interferer> aggressors = cell.aggressors();
  // Null and self entries are skipped, wherever they sit.
  aggressors.insert(aggressors.begin() + 2, Interferer{});
  aggressors.push_back({&cell.victim(), true, 0});
  // A via-reflector flag with an out-of-range reflector adds the AP term
  // only.
  aggressors.push_back({&cell.scenes[7], true, 9});

  const double shared =
      interference_at_headset(cell.victim(), aggressors, config).value();
  const double reference =
      per_aggressor_sum(cell.victim(), aggressors, config).value();
  EXPECT_EQ(shared, reference);
  EXPECT_GT(shared, -200.0);
  EXPECT_GT(sinr_penalty_db(cell.victim(), aggressors, config), 0.0);
}

TEST(ArenaInterference, EveryVictimAndOrderMatches) {
  // Every user as the victim, with the aggressor list forward and
  // reversed: grouping must not depend on where an AP's users sit.
  const Cell cell;
  const InterferenceConfig config;
  for (std::size_t v = 0; v < cell.scenes.size(); ++v) {
    std::vector<Interferer> aggressors;
    for (std::size_t u = 0; u < cell.scenes.size(); ++u) {
      if (u != v) {
        aggressors.push_back({&cell.scenes[u], u == 5 || u == 6,
                              u == 5 ? std::size_t{1} : std::size_t{2}});
      }
    }
    for (int pass = 0; pass < 2; ++pass) {
      EXPECT_EQ(
          interference_at_headset(cell.scenes[v], aggressors, config).value(),
          per_aggressor_sum(cell.scenes[v], aggressors, config).value())
          << "victim " << v << (pass == 0 ? " forward" : " reversed");
      std::reverse(aggressors.begin(), aggressors.end());
    }
  }
}

TEST(ArenaInterference, ApGroupsSplitOnOrientationAndArrayModel) {
  // Four aggressors share AP 1's position and tx power. One AP is turned
  // to another orientation and one has 16 elements instead of 10: each
  // path leaves those two at another Look, so they must not share the
  // others' per-path terms.
  core::ApRadio::Config sixteen;
  sixteen.array.elements = 16;
  std::vector<core::Scene> scenes;
  scenes.reserve(5);
  scenes.push_back(user_scene(0, {2.1, 1.7}));
  scenes.push_back(user_scene(1, {5.9, 1.4}));
  scenes.push_back(user_scene(1, {6.3, 2.6}));
  scenes.push_back(user_scene(1, {5.2, 2.2}, sixteen));
  scenes.push_back(user_scene(1, {4.8, 1.1}));
  scenes[2].ap().node().set_orientation(deg_to_rad(160.0));
  scenes[2].ap().node().steer_toward({6.3, 2.6});

  const InterferenceConfig config;
  std::vector<Interferer> aggressors;
  for (std::size_t u = 1; u < scenes.size(); ++u) {
    aggressors.push_back({&scenes[u], false, 0});
  }
  for (int pass = 0; pass < 2; ++pass) {
    EXPECT_EQ(interference_at_headset(scenes[0], aggressors, config).value(),
              per_aggressor_sum(scenes[0], aggressors, config).value())
        << (pass == 0 ? "forward" : "reversed");
    std::reverse(aggressors.begin(), aggressors.end());
  }
}

TEST(ArenaInterference, OnlySameApOrSkippedEntriesIsSilent) {
  const Cell cell;
  const InterferenceConfig config;
  const std::vector<Interferer> aggressors{
      Interferer{}, {&cell.victim(), false, 0}, {&cell.scenes[1], false, 0}};
  EXPECT_EQ(
      interference_at_headset(cell.victim(), aggressors, config).milliwatts(),
      rf::DbmPower::from_milliwatts(1e-30).milliwatts());
  EXPECT_EQ(sinr_penalty_db(cell.victim(), aggressors, config), 0.0);
}

}  // namespace
}  // namespace movr::arena
