#include <core/placement.hpp>

#include <algorithm>
#include <cmath>
#include <functional>
#include <mutex>
#include <stdexcept>

#include <channel/path_batch.hpp>
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

namespace {

/// The trial's blockage event: its kind, then, for a person, the distance
/// along the headset->AP line.
channel::Obstacle draw_blockage(geom::Vec2 pos, geom::Vec2 ap,
                                std::mt19937_64& rng) {
  std::uniform_int_distribution<int> kind{0, 2};
  switch (kind(rng)) {
    case 0:
      return channel::make_hand(pos, ap - pos);
    case 1:
      return channel::make_head(pos, ap - pos);
    default:
      return channel::make_person(
          pos + (ap - pos).normalized() *
                    std::uniform_real_distribution<double>{0.6, 2.0}(rng));
  }
}

}  // namespace

std::vector<int> PlacementPlanner::score_round(
    const channel::Room& room, geom::Vec2 ap_position,
    const std::vector<PlacementCandidate>& chosen,
    const std::vector<const PlacementCandidate*>& open) const {
  // Every trial draws from its own (seed, trial) RNG stream in one order:
  // headset position, blockage event, the chosen mounts' ramps, then the
  // scored mount's ramp on a copy of the RNG. A ramp reads only the headset
  // position, its own mount, the obstacle-free AP->mount paths and the RNG,
  // and reflectors are not room obstacles. So every candidate meets the
  // trial's one event, the chosen mounts score the same for all of them,
  // and max(prefix score, candidate's via SNR) is exactly a from-scratch
  // evaluation of chosen + candidate. Trials are independent: counts are
  // identical for every thread count.
  const sim::RngRegistry rngs{seed_};
  std::mutex mutex;
  std::vector<std::vector<int>> partials;  // one per worker
  parallel_for(
      static_cast<std::size_t>(config_.trials), config_.threads,
      [&](std::size_t begin, std::size_t end) {
        std::vector<int> local(open.size() + 1, 0);
        // The obstacle-free room is the same in every trial, so one scene
        // per worker serves every ramp, and its oracle keeps the AP->mount
        // paths across trials. So do the mounts: the chosen ones first,
        // then one per open candidate. Each ramp re-steers both arrays and
        // starts from gain code 0, so a mount carries nothing between
        // trials.
        Scene clear{channel::Room{room}, ApRadio{ap_position, 0.0},
                    HeadsetRadio{{room.width() / 2.0, room.depth() / 2.0},
                                 0.0}};
        std::vector<MovrReflector> mounts;
        mounts.reserve(chosen.size() + open.size());
        for (const PlacementCandidate& mount : chosen) {
          mounts.emplace_back(mount.position, mount.orientation);
        }
        for (const PlacementCandidate* mount : open) {
          mounts.emplace_back(mount->position, mount->orientation);
        }
        channel::EndpointBatch batch;  // capacity kept across trials
        for (const MovrReflector& r : mounts) {
          batch.push(ap_position, r.position());
        }
        clear.prefetch_paths(batch);

        const auto via_snr = [](Scene& scene, MovrReflector& r) {
          scene.aim_via(r);
          r.front_end().steer_tx(scene.true_reflector_angle_to_headset(r));
          return scene.via_snr(r).snr.value();
        };
        const double required = config_.required_snr.value();
        for (std::size_t trial = begin; trial < end; ++trial) {
          std::mt19937_64 rng = rngs.stream("placement-trial", trial);
          const geom::Vec2 pos = clear.room().random_interior_point(rng, 0.8);
          clear.headset().node().set_position(pos);
          clear.ap().node().set_orientation((pos - ap_position).heading());
          const channel::Obstacle blocker =
              draw_blockage(pos, ap_position, rng);
          for (std::size_t i = 0; i < chosen.size(); ++i) {
            clear.calibrate_reflector(mounts[i], rng);
          }

          // The obstacle empties the blocked clone's cache; one batched
          // solve fills it for every SNR read of the trial.
          Scene blocked = clear.clone();
          blocked.room().add_obstacle(blocker);
          batch.clear();
          batch.push(ap_position, pos);
          for (const MovrReflector& r : mounts) {
            batch.push(ap_position, r.position());
            batch.push(r.position(), pos);
          }
          blocked.prefetch_paths(batch);

          blocked.aim_direct();
          double prefix = blocked.direct_snr().value();
          for (std::size_t i = 0; i < chosen.size(); ++i) {
            prefix = std::max(prefix, via_snr(blocked, mounts[i]));
          }
          local[0] += prefix < required;
          for (std::size_t c = 0; c < open.size(); ++c) {
            MovrReflector& mount = mounts[chosen.size() + c];
            std::mt19937_64 mount_rng = rng;
            clear.calibrate_reflector(mount, mount_rng);
            local[c + 1] +=
                std::max(prefix, via_snr(blocked, mount)) < required;
          }
        }
        const std::scoped_lock lock{mutex};
        partials.push_back(std::move(local));
      });
  std::vector<int> outages(open.size() + 1, 0);
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
      static_cast<double>(score_round(room, ap_position, {}, {})[0]) /
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
      const double outage =
          static_cast<double>(outages[i + 1]) / config_.trials;
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
