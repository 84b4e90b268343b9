// Runtime link management: direct beam vs via-reflector, and back.
//
// This is the control loop that turns MoVR's pieces into an unbroken VR
// link (paper Fig. 5): the headset tracks its SNR; when it degrades (a hand
// went up, the head turned), the AP steers its beam to a reflector and the
// reflector's TX beam is pose-aimed at the headset; when probing shows the
// direct path healthy again, the link switches back. Handover latency is
// dominated by one Bluetooth exchange — inside a frame budget or two.
//
// The manager is an explicit state machine:
//
//   kDirect --headset degraded, usable reflector--> kHandoverPending
//   kHandoverPending --commit lands--> kViaReflector
//   kHandoverPending --timeout / bad via-SNR--> kDirect (+ quarantine)
//   kViaReflector --direct probes recover--> kDirect
//   kViaReflector --reflector goes bad--> next reflector, or kDegraded
//   kDirect/kViaReflector --degraded, nothing usable--> kDegraded
//   kDegraded --direct recovers--> kDirect;  --reflector probe due-->
//   kHandoverPending
//
// kDegraded means: reflectors exist but none is currently usable and the
// direct path is below par. The link stays up best-effort on the direct
// beam; rate control is expected to pin the lowest MCS (see
// LinkStrategy::pin_lowest_rate). A scene with zero reflectors never
// enters kDegraded — there is nothing to fall back FROM.
//
// Reflector supervision (quarantine, backoff re-probes, reboot detection
// via boot-epoch mismatch, calibration replay) lives in core::HealthMonitor;
// the manager holds the per-reflector calibration records it replays.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <random>
#include <vector>

#include <core/beam_tracker.hpp>
#include <core/health.hpp>
#include <core/occlusion_forecaster.hpp>
#include <core/scene.hpp>
#include <log/recorder.hpp>
#include <sim/control_channel.hpp>
#include <sim/simulator.hpp>

namespace movr::core {

class LinkManager {
 public:
  enum class Mode { kDirect, kHandoverPending, kViaReflector, kDegraded };

  struct Config {
    BeamTracker::Config tracker{};
    /// While on a reflector (or degraded), the direct path is probed at
    /// this cadence (one beam-training slot, negligible airtime).
    sim::Duration probe_interval{std::chrono::milliseconds{100}};
    /// Probed direct SNR must exceed the headset's recovery threshold this
    /// many times in a row before switching back.
    int probes_to_recover{3};
    /// Reflector TX beam is re-aimed when the tracked headset drifts more
    /// than this off the current beam (radians). ~ beamwidth / 4.
    double retarget_threshold{0.04};
    /// One Bluetooth exchange: the handover's dominant cost.
    sim::Duration bt_wait{std::chrono::milliseconds{10}};
    /// A pending handover that has not committed by now + handover_timeout
    /// is abandoned: back to kDirect, target quarantined.
    sim::Duration handover_timeout{std::chrono::milliseconds{40}};
    /// A committed or in-service via-link below this SNR counts as a bad
    /// observation against the reflector.
    rf::Decibels min_usable_snr{10.0};
    /// Models Bluetooth reachability of a reflector. Every register write
    /// the manager performs stands for a control-link exchange; when this
    /// hook is set and returns false, those writes fail like dropped BT
    /// frames instead of mutating reflector state: handover commits abort
    /// (and bench the target), in-service retargets are skipped. Wire it
    /// to the control channel's partition state so the manager cannot
    /// command a reflector across a partition. Unset = always reachable.
    std::function<bool(std::size_t)> reflector_reachable;
    /// Multi-user arbitration (arena::Coordinator): a reflector is a shared
    /// physical resource, so before a handover targets one the manager asks
    /// for a lease. A denial is an ordinary, transient outcome — the
    /// manager tries the next-best usable reflector, and if every usable
    /// candidate is leased elsewhere it stays in its current mode and asks
    /// again next frame (the retry IS the aging signal the arbiter uses).
    /// A denial never quarantines: the reflector is healthy, just busy.
    /// Unset = single-user room, every reflector is always ours.
    std::function<bool(std::size_t)> reflector_acquire;
    /// Releases a held lease: called when the manager leaves a reflector
    /// for any reason except an external revocation (recovered to direct,
    /// handover failed, reflector quarantined or rebooted mid-service).
    std::function<void(std::size_t)> reflector_release;
    /// Skip handover candidates whose via path is physically occluded:
    /// when every oracle path on either hop (AP->reflector or
    /// reflector->headset) is obstructed by more than occlusion_skip_db,
    /// no retargeting can make the commit succeed, so attempting it only
    /// burns bt_wait — and, in a multi-user room, holds a lease another
    /// user could have used. Off by default: a single-user manager's
    /// failed attempt is harmless and the probe result feeds health.
    bool skip_occluded_candidates{false};
    rf::Decibels occlusion_skip_db{12.0};
    HealthMonitor::Config health{};
    // --- proactive (forecast-driven) handover -------------------------
    /// Risk windows below this confidence are ignored outright.
    double proactive_confidence{0.6};
    /// Consecutive in-window ticks before the manager acts — hysteresis
    /// against one-tick forecast blips.
    int proactive_ticks_to_act{2};
    /// Proactive handovers allowed per risk window. Flapping forecasts
    /// re-delivering the same window cannot thrash past this budget.
    int proactive_budget_per_window{1};
    /// Minimum spacing between proactive handovers, across windows. A
    /// chaos forecaster fabricating a fresh window every tick is rate
    /// limited to one handover per cooldown.
    sim::Duration proactive_cooldown{std::chrono::milliseconds{300}};
    /// Session event-log sink. Every state transition the manager makes
    /// (handover begin/commit/abort, lease traffic, degraded entry) is
    /// recorded when set; unset costs one branch per site and no RNG.
    log::Recorder* recorder{nullptr};
  };

  LinkManager(sim::Simulator& simulator, Scene& scene, std::mt19937_64 rng)
      : LinkManager{simulator, scene, rng, Config{}} {}
  LinkManager(sim::Simulator& simulator, Scene& scene, std::mt19937_64 rng,
              Config config);

  /// Per-frame tick: maintains steering for the current mode, feeds the
  /// headset's SNR tracker, and drives handovers. Returns the true SNR the
  /// headset experienced this frame (before estimation noise).
  rf::Decibels on_frame();

  /// Feeds one forecast risk window (call before on_frame each tick). The
  /// manager merges overlapping windows, applies confidence + hysteresis
  /// gates, and — from kDirect, within the per-window budget and global
  /// cooldown — starts a handover *before* the SNR collapses. A window is
  /// a belief: acting on it costs one ordinary handover, never more.
  void on_risk_window(const LinkRiskWindow& window);

  /// True while inside a (merged) accepted risk window. The session uses
  /// this to arm speculative dual-path reception.
  bool risk_active() const { return simulator_.now() < risk_until_; }

  /// True SNR of the path the link is NOT currently riding — the direct
  /// beam while on a reflector, the best usable reflector's relay while
  /// direct. Evaluated without disturbing live steering (save/restore,
  /// like probe_direct_path); the reflector's TX beam is taken as-is (a
  /// hot spare keeps its last aim — no Bluetooth is spent on a belief).
  /// nullopt when there is no usable alternate.
  std::optional<rf::Decibels> speculative_alt_snr();

  Mode mode() const { return mode_; }
  bool degraded() const { return mode_ == Mode::kDegraded; }
  std::size_t active_reflector() const { return active_reflector_; }

  /// The reflector this manager currently holds a lease on (pending or in
  /// service), nullopt when no acquire hook is wired or no lease is held.
  /// The coordinator renews this lease with the arbiter each control tick.
  std::optional<std::size_t> leased_reflector() const {
    return holds_lease_ ? std::optional<std::size_t>{active_reflector_}
                        : std::nullopt;
  }

  /// External lease revocation (the arbiter handed the reflector to an
  /// aged-out waiter). Effective immediately: a pending handover to it is
  /// cancelled, an in-service link drops back to kDirect — the next frame
  /// re-runs ordinary target selection (another reflector, or degraded).
  /// The reflector is NOT quarantined: it is healthy, just no longer ours.
  /// No-op unless the manager is actually on (or moving to) `index`.
  void revoke_reflector(std::size_t index);

  HealthMonitor& health() { return health_; }
  const HealthMonitor& health() const { return health_; }

  struct Stats {
    int handovers_to_reflector{0};
    int handovers_to_direct{0};
    int retargets{0};
    int failed_handovers{0};
    int degraded_entries{0};
    sim::Duration time_on_reflector{0};
    /// Accepted (confidence-passing) risk windows, after merging.
    int risk_windows{0};
    /// Handovers started by a forecast rather than an SNR collapse.
    int proactive_handovers{0};
    /// Handover attempts where every usable reflector's lease was denied
    /// (multi-user contention; zero without an acquire hook).
    int denied_handovers{0};
    /// Leases the arbiter revoked out from under us mid-pending/service.
    int lease_revocations{0};
  };
  const Stats& stats() const { return stats_; }

 private:
  /// The AP-side memory of how a reflector was calibrated. Replayed over
  /// Bluetooth when the reflector reboots (its own registers are wiped;
  /// ours are not).
  struct CalibrationRecord {
    double rx_angle{0.0};
    std::uint32_t gain_code{0};
    std::uint32_t boot_epoch{0};
  };

  /// Runs `probe` on the AP's and the headset's beams, then puts back
  /// what it borrowed (both steerings and the headset's mounting): probes
  /// are what-ifs, the live link stays as aimed.
  template <class Probe>
  auto with_borrowed_beams(Probe probe);
  bool reachable(std::size_t index) const;
  bool via_occluded(const MovrReflector& reflector) const;
  bool acquire_lease(std::size_t index);
  void release_lease();
  rf::Decibels current_true_snr();
  void begin_handover_to_reflector();
  void commit_handover(std::size_t target, std::uint64_t seq);
  void abandon_handover(std::size_t target, std::uint64_t seq);
  void handover_failed(std::size_t target, const std::string& reason,
                       std::int64_t reason_code);
  void leave_reflector();
  void probe_direct_path();
  void degraded_tick();
  /// Emit the risk-window close (and spec disarm) records once the merged
  /// window has run out; recording only, never behavioral.
  void note_risk_transitions();
  std::optional<rf::Decibels> speculative_alt_snr_impl();
  void enter_degraded();
  void recalibrate(std::size_t index);
  std::optional<std::size_t> best_usable_reflector();

  sim::Simulator& simulator_;
  Scene& scene_;
  std::mt19937_64 rng_;
  Config config_;
  Mode mode_{Mode::kDirect};
  std::size_t active_reflector_{0};
  /// True while a lease acquired through Config::reflector_acquire on
  /// `active_reflector_` is outstanding (pending handover or in service).
  bool holds_lease_{false};
  int good_probes_{0};
  sim::TimePoint last_probe_{};
  sim::TimePoint reflector_since_{};
  HealthMonitor health_;
  std::vector<CalibrationRecord> records_;
  /// Handover target candidates (-via_snr, index), reused per attempt so
  /// selection never allocates once warmed.
  std::vector<std::pair<double, std::size_t>> candidate_scratch_;
  /// Monotonic handover sequence number: bumping it invalidates any
  /// commit/timeout events still in flight for an older attempt.
  std::uint64_t pending_seq_{0};
  sim::EventQueue::EventId commit_event_{0};
  sim::EventQueue::EventId timeout_event_{0};
  /// End of the current merged risk window; in the past = no risk.
  sim::TimePoint risk_until_{};
  int risky_ticks_{0};
  int proactive_used_{0};
  /// Event-log mirrors of the predictive tier (records only; unlogged
  /// runs never read them, keeping logged/unlogged runs bit-identical).
  bool risk_logged_open_{false};
  bool spec_logged_armed_{false};
  bool proactive_fired_{false};
  sim::TimePoint last_proactive_{};
  Stats stats_;
};

}  // namespace movr::core
