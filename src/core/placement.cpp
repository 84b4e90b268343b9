#include <core/placement.hpp>

#include <algorithm>
#include <cmath>
#include <functional>
#include <mutex>
#include <stdexcept>

#include <channel/path_batch.hpp>
#include <core/gain_control.hpp>
#include <core/parallel_for.hpp>
#include <geom/angle.hpp>
#include <sim/rng.hpp>

namespace movr::core {

PlacementPlanner::PlacementPlanner(const Config& config, std::uint64_t seed)
    : config_{config}, seed_{seed} {
  if (config_.trials < 1) {
    throw std::invalid_argument{"PlacementPlanner: trials must be >= 1"};
  }
  if (!std::isfinite(config_.mount_spacing_m) ||
      config_.mount_spacing_m <= 0.0) {
    throw std::invalid_argument{
        "PlacementPlanner: mount_spacing_m must be finite and > 0"};
  }
  if (!std::isfinite(config_.corner_margin_m) ||
      config_.corner_margin_m < 0.0) {
    throw std::invalid_argument{
        "PlacementPlanner: corner_margin_m must be finite and >= 0"};
  }
}

std::vector<PlacementCandidate> PlacementPlanner::candidates(
    const channel::Room& room, geom::Vec2 ap_position) const {
  std::vector<PlacementCandidate> result;
  const double w = room.width();
  const double d = room.depth();
  const double margin = config_.corner_margin_m;
  const double step = config_.mount_spacing_m;
  const double inset = 0.2;  // mounts sit just off the wall surface

  const auto add_wall = [&](geom::Vec2 from, geom::Vec2 to, double facing) {
    const double len = geom::distance(from, to);
    for (double s = margin; s <= len - margin; s += step) {
      const geom::Vec2 pos = from + (to - from).normalized() * s;
      // Skip mounts that sit on top of the AP or inside furniture.
      if (geom::distance(pos, ap_position) < 1.0) {
        continue;
      }
      const bool clear = std::none_of(
          room.obstacles().begin(), room.obstacles().end(),
          [&](const channel::Obstacle& o) {
            return geom::distance(pos, o.shape.center) <
                   o.shape.radius + 0.25;
          });
      if (clear) {
        result.push_back({pos, facing});
      }
    }
  };

  add_wall({inset, inset}, {w - inset, inset}, geom::deg_to_rad(90.0));
  add_wall({w - inset, inset}, {w - inset, d - inset}, geom::deg_to_rad(180.0));
  add_wall({w - inset, d - inset}, {inset, d - inset}, geom::deg_to_rad(270.0));
  add_wall({inset, d - inset}, {inset, inset}, geom::deg_to_rad(0.0));
  return result;
}

std::vector<int> PlacementPlanner::score_round(
    const channel::Room& room, geom::Vec2 ap_position,
    const std::vector<PlacementCandidate>& chosen,
    const std::vector<const PlacementCandidate*>& open) const {
  // Every trial draws from its own (seed, trial) RNG stream in one order:
  // headset position, the chosen mounts' ramps, the scored mount's ramp,
  // the blockage event. A ramp reads only the headset position, its own
  // mount, the obstacle-free AP->mount paths and the RNG, so continuing
  // each candidate from a clone of the calibrated prefix and a copy of its
  // RNG is exactly a from-scratch evaluation of chosen + candidate. Trials
  // are independent: counts are identical for every thread count.
  const sim::RngRegistry rngs{seed_};
  std::mutex mutex;
  std::vector<std::vector<int>> partials;  // one per worker
  parallel_for(
      static_cast<std::size_t>(config_.trials), config_.threads,
      [&](std::size_t begin, std::size_t end) {
        std::vector<int> local(open.size(), 0);
        channel::EndpointBatch batch;  // capacity kept across trials
        // Calibrates the reflectors from index `first` on, in order. One
        // batched solve serves every ramp step's reflector_input read: the
        // AP->reflector pairs are fixed until the obstacle lands.
        const auto calibrate = [&](Scene& scene, std::size_t first,
                                   std::mt19937_64& rng) {
          batch.clear();
          for (std::size_t i = first; i < scene.reflector_count(); ++i) {
            batch.push(ap_position, scene.reflector(i).position());
          }
          scene.prefetch_paths(batch);
          for (std::size_t i = first; i < scene.reflector_count(); ++i) {
            MovrReflector& r = scene.reflector(i);
            r.front_end().steer_rx(scene.true_reflector_angle_to_ap(r));
            r.front_end().steer_tx(scene.true_reflector_angle_to_headset(r));
            scene.ap().node().steer_toward(r.position());
            GainController::run(r.front_end(), scene.reflector_input(r), rng);
          }
        };
        for (std::size_t trial = begin; trial < end; ++trial) {
          std::mt19937_64 rng = rngs.stream("placement-trial", trial);
          Scene prefix{channel::Room{room}, ApRadio{ap_position, 0.0},
                       HeadsetRadio{{room.width() / 2.0, room.depth() / 2.0},
                                    0.0}};
          for (const PlacementCandidate& mount : chosen) {
            prefix.add_reflector(mount.position, mount.orientation);
          }
          const geom::Vec2 pos = prefix.room().random_interior_point(rng, 0.8);
          prefix.headset().node().set_position(pos);
          prefix.ap().node().set_orientation((pos - ap_position).heading());
          calibrate(prefix, 0, rng);

          for (std::size_t c = 0; c < open.size(); ++c) {
            Scene scene = prefix.clone();
            std::mt19937_64 scored_rng = rng;
            if (open[c] != nullptr) {
              scene.add_reflector(open[c]->position, open[c]->orientation);
              calibrate(scene, chosen.size(), scored_rng);
            }

            const geom::Vec2 ap = scene.ap().node().position();
            std::uniform_int_distribution<int> kind{0, 2};
            std::uniform_real_distribution<double> offset{0.6, 2.0};
            switch (kind(scored_rng)) {
              case 0:
                scene.room().add_obstacle(channel::make_hand(pos, ap - pos));
                break;
              case 1:
                scene.room().add_obstacle(channel::make_head(pos, ap - pos));
                break;
              default:
                scene.room().add_obstacle(channel::make_person(
                    pos + (ap - pos).normalized() * offset(scored_rng)));
            }

            // The obstacle bumped the room revision and emptied the cache;
            // one batched solve repopulates it for every SNR read below.
            batch.clear();
            batch.push(ap, pos);
            for (std::size_t i = 0; i < scene.reflector_count(); ++i) {
              batch.push(ap, scene.reflector(i).position());
              batch.push(scene.reflector(i).position(), pos);
            }
            scene.prefetch_paths(batch);

            scene.ap().node().steer_toward(pos);
            scene.headset().node().face_toward(ap);
            double best = scene.direct_snr().value();
            for (std::size_t i = 0; i < scene.reflector_count(); ++i) {
              MovrReflector& r = scene.reflector(i);
              scene.ap().node().steer_toward(r.position());
              scene.headset().node().face_toward(r.position());
              r.front_end().steer_tx(scene.true_reflector_angle_to_headset(r));
              best = std::max(best, scene.via_snr(r).snr.value());
            }
            local[c] += best < config_.required_snr.value();
          }
        }
        const std::scoped_lock lock{mutex};
        partials.push_back(std::move(local));
      });
  std::vector<int> outages(open.size(), 0);
  for (const std::vector<int>& partial : partials) {
    std::transform(partial.begin(), partial.end(), outages.begin(),
                   outages.begin(), std::plus<>{});
  }
  return outages;
}

PlacementPlan PlacementPlanner::plan(const channel::Room& room,
                                     geom::Vec2 ap_position) const {
  PlacementPlan result;
  const auto all = candidates(room, ap_position);
  result.outage_curve.push_back(
      static_cast<double>(score_round(room, ap_position, {}, {nullptr})[0]) /
      config_.trials);

  std::vector<PlacementCandidate> chosen;
  while (static_cast<int>(chosen.size()) < config_.max_reflectors &&
         result.outage_curve.back() > config_.target_outage) {
    std::vector<const PlacementCandidate*> open;
    for (const PlacementCandidate& candidate : all) {
      const bool already = std::any_of(
          chosen.begin(), chosen.end(), [&](const PlacementCandidate& c) {
            return geom::distance(c.position, candidate.position) < 1e-6;
          });
      if (!already) {
        open.push_back(&candidate);
      }
    }
    const auto outages = score_round(room, ap_position, chosen, open);
    double best_outage = result.outage_curve.back();
    const PlacementCandidate* best_candidate = nullptr;
    for (std::size_t i = 0; i < open.size(); ++i) {
      const double outage = static_cast<double>(outages[i]) / config_.trials;
      if (outage < best_outage) {
        best_outage = outage;
        best_candidate = open[i];
      }
    }
    if (best_candidate == nullptr) {
      break;  // no candidate improves coverage
    }
    chosen.push_back(*best_candidate);
    result.outage_curve.push_back(best_outage);
  }
  result.chosen = std::move(chosen);
  return result;
}

}  // namespace movr::core
