#include <core/placement.hpp>

#include <algorithm>
#include <cmath>
#include <stdexcept>

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

PlacementPlan PlacementPlanner::plan(const channel::Room& room,
                                     geom::Vec2 ap_position) const {
  const std::vector<PlacementCandidate> mounts = candidates(room, ap_position);
  // One row per trial: the direct SNR under the trial's blockage event,
  // then every mount's via SNR under the same event.
  const std::size_t trials = static_cast<std::size_t>(config_.trials);
  const std::size_t columns = mounts.size() + 1;
  std::vector<double> snr(trials * columns);

  // Every trial draws from its own (seed, trial) RNG stream in one order:
  // headset position, blockage event, then each mount's ramp from its own
  // copy of the stream as the event left it. A ramp reads only the headset
  // position, its own mount, the obstacle-free AP->mount paths and the RNG,
  // reflectors are not room obstacles, and a via read depends only on its
  // own mount. So a mount scores the same in a trial whichever other mounts
  // are deployed, and max(direct, the set's vias) over a row is exactly a
  // from-scratch evaluation of any candidate set. Each trial writes only
  // its own row: the table is identical for every thread count.
  const sim::RngRegistry rngs{seed_};
  parallel_for(
      trials, config_.threads, [&](std::size_t begin, std::size_t end) {
        // The obstacle-free room is the same in every trial, so one scene
        // per worker serves every ramp, and its oracle keeps the AP->mount
        // paths across trials. So do the mounts: each ramp re-steers both
        // arrays and starts from gain code 0, so a mount carries nothing
        // between trials.
        Scene clear{channel::Room{room}, ApRadio{ap_position, 0.0},
                    HeadsetRadio{{room.width() / 2.0, room.depth() / 2.0},
                                 0.0}};
        std::vector<MovrReflector> reflectors;
        reflectors.reserve(mounts.size());
        for (const PlacementCandidate& mount : mounts) {
          reflectors.emplace_back(mount.position, mount.orientation);
        }

        for (std::size_t trial = begin; trial < end; ++trial) {
          std::mt19937_64 rng = rngs.stream("placement-trial", trial);
          const geom::Vec2 pos = clear.room().random_interior_point(rng, 0.8);
          clear.headset().node().set_position(pos);
          clear.ap().node().set_orientation((pos - ap_position).heading());
          const channel::Obstacle blocker =
              draw_blockage(pos, ap_position, rng);

          Scene blocked = clear.clone();
          blocked.room().add_obstacle(blocker);

          double* row = &snr[trial * columns];
          blocked.aim_direct();
          row[0] = blocked.direct_snr().value();
          for (std::size_t m = 0; m < reflectors.size(); ++m) {
            MovrReflector& r = reflectors[m];
            std::mt19937_64 mount_rng = rng;
            clear.calibrate_reflector(r, mount_rng);
            blocked.aim_via(r);
            r.front_end().steer_tx(blocked.true_reflector_angle_to_headset(r));
            row[m + 1] = blocked.via_snr(r).snr.value();
          }
        }
      });

  // The greedy rounds are arithmetic over the table. `best` holds each
  // trial's max(direct, chosen vias); a column's outage counts the trials
  // where max(best, that column) misses the requirement.
  const double required = config_.required_snr.value();
  std::vector<double> best(trials);
  for (std::size_t t = 0; t < trials; ++t) {
    best[t] = snr[t * columns];
  }
  const auto outage = [&](std::size_t column) {
    int outages = 0;
    for (std::size_t t = 0; t < trials; ++t) {
      outages += std::max(best[t], snr[t * columns + column]) < required;
    }
    return static_cast<double>(outages) / config_.trials;
  };

  PlacementPlan result;
  result.outage_curve.push_back(outage(0));
  std::vector<bool> open(mounts.size(), true);
  while (static_cast<int>(result.chosen.size()) < config_.max_reflectors &&
         result.outage_curve.back() > config_.target_outage) {
    double best_outage = result.outage_curve.back();
    std::size_t pick = mounts.size();
    for (std::size_t m = 0; m < mounts.size(); ++m) {
      if (!open[m]) {
        continue;
      }
      const double candidate_outage = outage(m + 1);
      if (candidate_outage < best_outage) {
        best_outage = candidate_outage;
        pick = m;
      }
    }
    if (pick == mounts.size()) {
      break;  // no open mount improves coverage
    }
    const geom::Vec2 spot = mounts[pick].position;
    for (std::size_t t = 0; t < trials; ++t) {
      best[t] = std::max(best[t], snr[t * columns + pick + 1]);
    }
    // The chosen mount, and any other at the same spot, leaves the pool.
    for (std::size_t m = 0; m < mounts.size(); ++m) {
      open[m] = open[m] && geom::distance(mounts[m].position, spot) >= 1e-6;
    }
    result.chosen.push_back(mounts[pick]);
    result.outage_curve.push_back(best_outage);
  }
  return result;
}

}  // namespace movr::core
