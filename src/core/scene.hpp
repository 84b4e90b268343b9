// Scene: the deployed system in a room — AP, headset, reflectors — and the
// RF physics queries every protocol and experiment is built from.
//
// The scene is the "world" side of the simulation: protocols (angle search,
// gain control, link management) may only interact with it through the same
// observables the real system has (received powers, SNR estimates, current
// readings); the scene itself computes ground truth.
#pragma once

#include <memory>
#include <random>
#include <vector>

#include <channel/room.hpp>
#include <core/ap.hpp>
#include <core/channel_oracle.hpp>
#include <core/gain_control.hpp>
#include <core/headset.hpp>
#include <core/hop_memo.hpp>
#include <core/reflector.hpp>
#include <hw/front_end.hpp>
#include <phy/link.hpp>
#include <rf/units.hpp>

namespace movr::core {

class Scene {
 public:
  struct Config {
    phy::LinkConfig link{};
    /// The single-link implementation loss splits between the TX side and
    /// the RX side; a via-reflector path pays tx_side on the first hop and
    /// rx_side on the second (the reflector itself is pure analog, its
    /// losses live inside the front-end model).
    rf::Decibels tx_side_loss{5.5};
    rf::Decibels rx_side_loss{5.5};
    /// Model the noise the relay amplifies and re-radiates (kTB + amplifier
    /// NF + closed-loop gain, re-launched toward the headset). Physically
    /// real and non-negligible at high gain; the paper's SNR comparison
    /// does not account for it, so benches report both views.
    bool include_relay_noise{true};
  };

  Scene(channel::Room room, ApRadio ap, HeadsetRadio headset)
      : Scene{std::move(room), std::move(ap), std::move(headset), Config{}} {}
  Scene(channel::Room room, ApRadio ap, HeadsetRadio headset, Config config);

  // --- world state ----------------------------------------------------
  channel::Room& room() { return *room_; }
  const channel::Room& room() const { return *room_; }
  ApRadio& ap() { return ap_; }
  const ApRadio& ap() const { return ap_; }
  HeadsetRadio& headset() { return headset_; }
  const HeadsetRadio& headset() const { return headset_; }
  const Config& config() const { return config_; }
  /// Toggles relay-noise modelling (benches report both views).
  void set_include_relay_noise(bool on) { config_.include_relay_noise = on; }

  MovrReflector& add_reflector(geom::Vec2 position, double orientation_rad,
                               hw::ReflectorFrontEnd::Config front_end = {});
  std::size_t reflector_count() const { return reflectors_.size(); }
  MovrReflector& reflector(std::size_t i) { return *reflectors_.at(i); }
  const MovrReflector& reflector(std::size_t i) const {
    return *reflectors_.at(i);
  }

  // --- physics queries (ground truth) ----------------------------------
  /// Paths between two points with the current room state, as a borrowed
  /// view — no path copying on a warm cache hit. Served by the memoising
  /// ChannelOracle: repeated queries against unchanged geometry are cache
  /// hits, while any Room mutation bumps the room's revision and
  /// invalidates the cache — so moving a blocker still takes effect
  /// immediately.
  ChannelOracle::PathsView paths_view(geom::Vec2 a, geom::Vec2 b) const;

  /// The oracle serving paths_view, bound to this scene's room for the
  /// scene's life. Exposes the precomputed PathSolver and the
  /// query/hit/invalidation counters.
  const ChannelOracle& oracle() const { return *oracle_; }
  ChannelOracle::Stats oracle_stats() const { return oracle().stats(); }
  void reset_oracle_stats() const { oracle().reset_stats(); }

  /// Deep copy: independent room, radios, reflectors (same control names
  /// and calibration state) and a fresh, empty oracle. The parallel grid
  /// evaluators (coverage, placement) give each worker its own clone so
  /// per-cell steering never races.
  Scene clone() const;

  // The three hops below each keep their last evaluation (HopMemo): a
  // query whose path set, transmitter power, orientations and steerings
  // are bit-identical to the last one returns the same power without
  // summing the paths again. The path set is still fetched, so oracle
  // stats count every query. Queries write the memos and key them on the
  // oracle's generation (ChannelOracle::generation), so a Scene, its
  // oracle and any reflector it is asked about are used by one thread at
  // a time; parallel evaluators give each worker a clone.

  /// Direct AP -> headset received power / SNR with current steerings.
  rf::DbmPower direct_power() const;
  rf::Decibels direct_snr() const;

  /// Power arriving at a reflector's RX-array connector from the AP
  /// (first hop of the relay path), with current steerings.
  rf::DbmPower reflector_input(const MovrReflector& reflector) const;

  struct ViaResult {
    rf::Decibels snr{-300.0};
    rf::DbmPower at_headset{};       // power of the relayed signal alone
    hw::ReflectorFrontEnd::State front_end{};
    /// True when the relayed signal is clean (stable, not compressed).
    bool usable{false};
  };
  /// AP -> reflector -> headset with current steerings and gain. The direct
  /// (possibly blocked) AP->headset energy is power-summed in: the headset
  /// hears both.
  ViaResult via_snr(const MovrReflector& reflector) const;

  /// Sideband power (f1 + f2) arriving back at the AP's RX connector when
  /// `reflector` modulates and reflects the AP's tone — the observable of
  /// the angle-search protocol. No measurement noise here; ApRadio adds it.
  rf::DbmPower backscatter_at_ap(const MovrReflector& reflector) const;

  // --- ground-truth geometry (for evaluation only, not for protocols) --
  /// Array-local angle at which the AP appears from the reflector.
  double true_reflector_angle_to_ap(const MovrReflector& reflector) const;
  /// Array-local angle at which the reflector appears from the AP.
  double true_ap_angle_to_reflector(const MovrReflector& reflector) const;
  /// Array-local angle at which the headset appears from the reflector.
  double true_reflector_angle_to_headset(const MovrReflector& reflector) const;

  // --- ground-truth aiming and calibration ------------------------------
  /// Aims the AP's beam at the headset and turns the headset to the AP.
  void aim_direct() {
    ap_.node().steer_toward(headset_.node().position());
    headset_.node().face_toward(ap_.node().position());
  }
  /// Aims the AP's beam at `reflector` and turns the headset to it.
  void aim_via(const MovrReflector& reflector) {
    ap_.node().steer_toward(reflector.position());
    headset_.node().face_toward(reflector.position());
  }
  /// Calibrates `reflector` (this scene's or any other) from ground truth
  /// instead of the Section 4.1 search: RX beam at the AP, TX beam at the
  /// headset, the AP's beam on the reflector, then the Section 4.2 gain
  /// ramp, whose result it returns. For callers whose subject is not the
  /// search itself (IncidenceSearch / ReflectionSearch, angle_search.hpp).
  GainController::Result calibrate_reflector(MovrReflector& reflector,
                                             std::mt19937_64& rng);

 private:
  // The oracle holds a pointer to the room. Both live on the heap, so a
  // moved Scene keeps the room's address, the oracle's binding and its
  // warm cache.
  std::unique_ptr<channel::Room> room_;
  std::unique_ptr<ChannelOracle> oracle_;
  ApRadio ap_;
  HeadsetRadio headset_;
  Config config_;
  std::vector<std::unique_ptr<MovrReflector>> reflectors_;
  /// direct_power's memo (the reflector hops' live in MovrReflector).
  mutable HopMemo direct_memo_;
};

}  // namespace movr::core
