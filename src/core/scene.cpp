#include <core/scene.hpp>

#include <bit>

#include <rf/noise.hpp>
#include <rf/propagation.hpp>

namespace movr::core {

namespace {

ChannelOracle::Config oracle_config(const Scene::Config& config) {
  ChannelOracle::Config oracle;
  oracle.solver = {config.link.carrier_hz, 2, rf::Decibels{60.0}};
  return oracle;
}

/// The memo key of a hop over `paths`, which `oracle` has just returned
/// (its generation is read after the query, which may have dropped the
/// cache).
HopMemo::Key hop_key(const ChannelOracle& oracle,
                     const ChannelOracle::PathsView& paths,
                     rf::DbmPower tx_power, double tx_orientation,
                     const rf::PhasedArray& tx_array, double rx_orientation,
                     const rf::PhasedArray& rx_array) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return {oracle.generation(),       paths.get(),
          bits(tx_power.value()),    bits(tx_orientation),
          bits(tx_array.steering()), bits(rx_orientation),
          bits(rx_array.steering())};
}

}  // namespace

Scene::Scene(channel::Room room, ApRadio ap, HeadsetRadio headset,
             Config config)
    : room_{std::make_unique<channel::Room>(std::move(room))},
      oracle_{std::make_unique<ChannelOracle>(*room_, oracle_config(config))},
      ap_{std::move(ap)},
      headset_{std::move(headset)},
      config_{config} {}

Scene Scene::clone() const {
  Scene copy{channel::Room{*room_}, ApRadio{ap_}, HeadsetRadio{headset_},
             config_};
  copy.reflectors_.reserve(reflectors_.size());
  for (const auto& reflector : reflectors_) {
    copy.reflectors_.push_back(std::make_unique<MovrReflector>(*reflector));
  }
  return copy;
}

MovrReflector& Scene::add_reflector(geom::Vec2 position,
                                    double orientation_rad,
                                    hw::ReflectorFrontEnd::Config front_end) {
  reflectors_.push_back(
      std::make_unique<MovrReflector>(position, orientation_rad, front_end));
  reflectors_.back()->set_control_name("reflector" +
                                       std::to_string(reflectors_.size() - 1));
  return *reflectors_.back();
}

ChannelOracle::PathsView Scene::paths_view(geom::Vec2 a, geom::Vec2 b) const {
  return oracle().paths_view(a, b);
}

rf::DbmPower Scene::direct_power() const {
  const phy::RadioNode& ap = ap_.node();
  const phy::RadioNode& headset = headset_.node();
  const auto paths = paths_view(ap.position(), headset.position());
  return direct_memo_.get(
      hop_key(*oracle_, paths, ap.tx_power(), ap.orientation(), ap.array(),
              headset.orientation(), headset.array()),
      [&] { return phy::received_power(ap, headset, *paths, config_.link); });
}

rf::Decibels Scene::direct_snr() const {
  return direct_power() - phy::link_noise_floor(config_.link);
}

rf::DbmPower Scene::reflector_input(const MovrReflector& reflector) const {
  const phy::RadioNode& ap = ap_.node();
  const auto paths = paths_view(ap.position(), reflector.position());
  const auto& rx_array = reflector.front_end().rx_array();
  return reflector.input_memo_.get(
      hop_key(*oracle_, paths, ap.tx_power(), ap.orientation(), ap.array(),
              reflector.orientation(), rx_array),
      [&] {
        return phy::path_power(
            ap.tx_power(), *paths,
            [&](double az) { return ap.response_toward(az); },
            [&](double az) {
              return phy::array_response(rx_array, reflector.to_local(az));
            },
            config_.link, config_.tx_side_loss);
      });
}

Scene::ViaResult Scene::via_snr(const MovrReflector& reflector) const {
  ViaResult result;
  const rf::DbmPower input = reflector_input(reflector);
  result.front_end = reflector.front_end().process(input);
  result.usable = result.front_end.stable && !result.front_end.saturated;

  const phy::RadioNode& headset = headset_.node();
  const auto paths = paths_view(reflector.position(), headset.position());
  const auto& tx_array = reflector.front_end().tx_array();
  const rf::DbmPower relayed = reflector.relay_memo_.get(
      hop_key(*oracle_, paths, result.front_end.output,
              reflector.orientation(), tx_array, headset.orientation(),
              headset.array()),
      [&] {
        return phy::path_power(
            result.front_end.output, *paths,
            [&](double az) {
              return phy::array_response(tx_array, reflector.to_local(az));
            },
            [&](double az) { return headset.response_toward(az); },
            config_.link, config_.rx_side_loss);
      });
  result.at_headset = relayed;

  const rf::DbmPower direct = direct_power();
  const rf::DbmPower floor = phy::link_noise_floor(config_.link);

  // The relay amplifies its own input noise (kTB + amplifier NF + closed-
  // loop gain) and re-radiates it toward the headset with the same
  // second-hop gain as the signal.
  const rf::Decibels second_hop_gain = relayed - result.front_end.output;
  const rf::DbmPower relayed_noise =
      config_.include_relay_noise
          ? rf::noise_floor(
                config_.link.bandwidth_hz,
                reflector.front_end().config().amplifier.noise_figure) +
                result.front_end.effective_gain + second_hop_gain
          : rf::DbmPower{};

  if (result.usable) {
    result.snr = rf::power_sum(direct, relayed) -
                 rf::power_sum(floor, relayed_noise);
  } else {
    // Oscillating/compressed front end: the relayed energy arrives as
    // garbage and acts as interference on top of the noise floor.
    result.snr = direct - rf::power_sum(floor, relayed);
  }
  return result;
}

rf::DbmPower Scene::backscatter_at_ap(const MovrReflector& reflector) const {
  const rf::DbmPower input = reflector_input(reflector);
  const auto state = reflector.front_end().process(input);
  if (!reflector.front_end().modulating() || !state.stable) {
    return rf::DbmPower{};  // nothing at f1+f2
  }
  const auto paths =
      paths_view(reflector.position(), ap_.node().position());
  const auto& tx_array = reflector.front_end().tx_array();
  return phy::path_power(
      state.sideband_output, *paths,
      [&](double az) {
        return phy::array_response(tx_array, reflector.to_local(az));
      },
      [&](double az) { return ap_.node().response_toward(az); },
      config_.link, config_.rx_side_loss);
}

double Scene::true_reflector_angle_to_ap(const MovrReflector& r) const {
  return r.to_local((ap_.node().position() - r.position()).heading());
}

double Scene::true_ap_angle_to_reflector(const MovrReflector& r) const {
  return ap_.node().to_local((r.position() - ap_.node().position()).heading());
}

double Scene::true_reflector_angle_to_headset(const MovrReflector& r) const {
  return r.to_local((headset_.node().position() - r.position()).heading());
}

GainController::Result Scene::calibrate_reflector(MovrReflector& reflector,
                                                  std::mt19937_64& rng) {
  reflector.front_end().steer_rx(true_reflector_angle_to_ap(reflector));
  reflector.front_end().steer_tx(true_reflector_angle_to_headset(reflector));
  ap_.node().steer_toward(reflector.position());
  return GainController::run(reflector.front_end(), reflector_input(reflector),
                             rng);
}

}  // namespace movr::core
