// Scene's hop memos (core/hop_memo.hpp) are exact: after any change to the
// world, direct_power, reflector_input and via_snr return the bits of a
// from-scratch evaluation over the scene's current path sets, whether the
// memo hit or not.
#include <core/scene.hpp>

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include <channel/obstacle.hpp>
#include <geom/angle.hpp>
#include <phy/link.hpp>

namespace movr::core {
namespace {

using geom::deg_to_rad;

std::uint64_t bits(rf::DbmPower p) {
  return std::bit_cast<std::uint64_t>(p.value());
}
std::uint64_t bits(rf::Decibels d) {
  return std::bit_cast<std::uint64_t>(d.value());
}

Scene make_scene() {
  Scene scene{channel::Room{6.0, 5.0}, ApRadio{{0.4, 0.4}, deg_to_rad(45.0)},
              HeadsetRadio{{3.0, 2.0}, 0.0}};
  scene.add_reflector({5.6, 4.6}, deg_to_rad(225.0));
  scene.add_reflector({0.4, 4.6}, deg_to_rad(315.0));
  scene.aim_direct();
  return scene;
}

// ---- references: phy's reductions over the scene's current path sets ----

rf::DbmPower reference_direct(const Scene& scene) {
  const phy::RadioNode& ap = scene.ap().node();
  const phy::RadioNode& headset = scene.headset().node();
  const auto paths = scene.paths_view(ap.position(), headset.position());
  return phy::received_power(ap, headset, *paths, scene.config().link);
}

rf::DbmPower reference_input(const Scene& scene, const MovrReflector& r) {
  const phy::RadioNode& ap = scene.ap().node();
  const auto paths = scene.paths_view(ap.position(), r.position());
  const rf::PhasedArray& rx_array = r.front_end().rx_array();
  return phy::path_power(
      ap.tx_power(), *paths, [&](double az) { return ap.response_toward(az); },
      [&](double az) { return phy::array_response(rx_array, r.to_local(az)); },
      scene.config().link, scene.config().tx_side_loss);
}

rf::DbmPower reference_relay(const Scene& scene, const MovrReflector& r,
                             rf::DbmPower output) {
  const phy::RadioNode& headset = scene.headset().node();
  const auto paths = scene.paths_view(r.position(), headset.position());
  const rf::PhasedArray& tx_array = r.front_end().tx_array();
  return phy::path_power(
      output, *paths,
      [&](double az) { return phy::array_response(tx_array, r.to_local(az)); },
      [&](double az) { return headset.response_toward(az); },
      scene.config().link, scene.config().rx_side_loss);
}

/// via_snr with no memo to hit: on a clone, whose oracle's generation is
/// new, for a copy of the reflector, so `r`'s own memos stay as they were.
Scene::ViaResult cold_via(const Scene& scene, const MovrReflector& r) {
  const Scene cold = scene.clone();
  const MovrReflector copy = r;
  return cold.via_snr(copy);
}

/// Queries every hop twice (the second is always a memo hit) and compares
/// each answer with its reference, bit for bit.
void expect_exact(const Scene& scene,
                  const std::vector<const MovrReflector*>& reflectors,
                  int step) {
  for (int pass = 0; pass < 2; ++pass) {
    EXPECT_EQ(bits(scene.direct_power()), bits(reference_direct(scene)))
        << "step " << step << " pass " << pass;
    for (std::size_t i = 0; i < reflectors.size(); ++i) {
      const MovrReflector& r = *reflectors[i];
      const rf::DbmPower input = reference_input(scene, r);
      EXPECT_EQ(bits(scene.reflector_input(r)), bits(input))
          << "step " << step << " pass " << pass << " reflector " << i;
      const auto via = scene.via_snr(r);
      const auto state = r.front_end().process(input);
      EXPECT_EQ(bits(via.front_end.output), bits(state.output))
          << "step " << step << " pass " << pass << " reflector " << i;
      EXPECT_EQ(bits(via.at_headset),
                bits(reference_relay(scene, r, state.output)))
          << "step " << step << " pass " << pass << " reflector " << i;
      const auto cold = cold_via(scene, r);
      EXPECT_EQ(bits(via.snr), bits(cold.snr))
          << "step " << step << " pass " << pass << " reflector " << i;
      EXPECT_EQ(via.usable, cold.usable)
          << "step " << step << " pass " << pass << " reflector " << i;
    }
  }
}

TEST(HopMemo, EveryHopMatchesAFreshEvaluation) {
  Scene scene = make_scene();
  // A reflector that belongs to no scene (the placement planner's mounts).
  MovrReflector loose{{5.6, 0.4}, deg_to_rad(135.0)};
  std::mt19937_64 rng{20240611};
  std::uniform_real_distribution<double> angle{0.0, geom::kTwoPi};
  std::uniform_int_distribution<int> pick_reflector{0, 2};
  const auto reflector = [&](int i) -> MovrReflector& {
    return i < 2 ? scene.reflector(static_cast<std::size_t>(i)) : loose;
  };

  constexpr int kMutations = 17;
  std::uniform_int_distribution<int> pick_mutation{0, kMutations - 1};
  for (int step = 0; step < 400; ++step) {
    phy::RadioNode& ap = scene.ap().node();
    phy::RadioNode& headset = scene.headset().node();
    MovrReflector& r = reflector(pick_reflector(rng));
    switch (pick_mutation(rng)) {
      case 0:
        ap.array().steer(angle(rng));
        break;
      case 1:
        headset.array().steer(angle(rng));
        break;
      case 2:
        r.front_end().steer_rx(angle(rng));
        break;
      case 3:
        r.front_end().steer_tx(angle(rng));
        break;
      case 4:  // re-steer every array to its own steering: skipped steers
        ap.array().steer(ap.array().steering());
        headset.array().steer(headset.array().steering());
        r.front_end().steer_rx(r.front_end().rx_array().steering());
        r.front_end().steer_tx(r.front_end().tx_array().steering());
        break;
      case 5:
        headset.face_toward(r.position());
        ap.steer_toward(r.position());
        break;
      case 6:
        scene.aim_direct();
        break;
      case 7:
        ap.set_tx_power(rf::DbmPower{
            std::uniform_real_distribution<double>{-5.0, 10.0}(rng)});
        break;
      case 8:  // a person in the direct path, or anywhere
        scene.room().add_obstacle(channel::make_person(
            rng() % 2 == 0
                ? (ap.position() + headset.position()) * 0.5
                : scene.room().random_interior_point(rng, 0.6)));
        break;
      case 9:
        scene.room().remove_obstacles("person");
        break;
      case 10:
        r.front_end().set_gain_code(static_cast<std::uint32_t>(
            rng() % (r.front_end().max_gain_code() + 1)));
        break;
      case 11:
        r.front_end().inject_gain_sag(rf::Decibels{
            std::uniform_real_distribution<double>{0.0, 6.0}(rng)});
        break;
      case 12:
        r.power_cycle();
        break;
      case 13:
        scene = scene.clone();
        break;
      case 14: {
        Scene moved{std::move(scene)};
        scene = std::move(moved);
        break;
      }
      case 15:
        headset.set_position(scene.room().random_interior_point(rng, 0.6));
        break;
      case 16:
        scene.set_include_relay_noise(!scene.config().include_relay_noise);
        break;
    }
    expect_exact(scene, {&scene.reflector(0), &scene.reflector(1), &loose},
                 step);
    if (::testing::Test::HasFailure()) {
      return;  // the first diverging step is the one worth reading
    }
  }
}

TEST(HopMemo, FreedPathSetAddressesNeverHit) {
  // Each room edit drops the oracle's cache and frees its path sets; the
  // next solve may land at a freed set's address. The memo must not take
  // the new set for the old one: blocked and clear differ by > 15 dB.
  Scene scene = make_scene();
  MovrReflector& r = scene.reflector(0);
  std::mt19937_64 rng{7};
  scene.calibrate_reflector(r, rng);
  scene.aim_direct();
  const geom::Vec2 ap = scene.ap().node().position();
  const geom::Vec2 on_direct = (ap + scene.headset().node().position()) * 0.5;
  const geom::Vec2 on_input = (ap + r.position()) * 0.5;
  const rf::DbmPower clear = scene.direct_power();
  scene.room().add_obstacle(channel::make_person(on_direct));
  ASSERT_GT(clear - reference_direct(scene), rf::Decibels{15.0});
  scene.room().remove_obstacles("person");
  for (int i = 0; i < 40; ++i) {
    scene.room().add_obstacle(channel::make_person(on_direct));
    scene.room().add_obstacle(channel::make_person(on_input));
    expect_exact(scene, {&r}, 2 * i);
    scene.room().remove_obstacles("person");
    expect_exact(scene, {&r}, 2 * i + 1);
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
}

}  // namespace
}  // namespace movr::core
