// The multi-user arena coordinator.
//
// N per-user vr::Sessions — each a full clone of the single-user stack:
// scene, LinkManager, transport — interleave on ONE simulator, while the
// coordinator runs the shared-room physics and policy around them:
//
//   * spectrum: per-victim mutual-interference penalties (interference.hpp)
//     and per-AP airtime shares, fed through the Session's arena hooks into
//     the existing ChannelState path;
//   * reflectors: the lease table (lease.hpp) arbitrates exclusive use;
//     the LinkManager's acquire/release hooks and revoke_reflector() are
//     the data-plane ends of that protocol;
//   * load: the admission controller (admission.hpp) degrades and evicts
//     users with hysteresis when an AP's airtime oversubscribes.
//
// Determinism contract (DESIGN.md §12.4): every per-user random stream is
// derived from (seed, purpose, user) via sim::RngRegistry; sessions tick
// in user order at equal timestamps (insertion order breaks event-queue
// ties); coordinator control ticks never consume session RNG. A 1-user
// arena is bit-identical to the standalone Session that
// standalone_run() builds from the same seed — the hooks degenerate to
// subtracting 0.0 dB, capping at INT_MAX and dividing airtime by 1.0, and
// qoe_fingerprint() is the equality the bench gate checks.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include <arena/admission.hpp>
#include <arena/interference.hpp>
#include <arena/lease.hpp>
#include <core/health.hpp>
#include <core/link_manager.hpp>
#include <log/recorder.hpp>
#include <sim/fault_injector.hpp>
#include <sim/simulator.hpp>
#include <vr/motion.hpp>
#include <vr/session.hpp>

namespace movr::arena {

/// One scripted shared-resource fault. Each user simulates its own clone
/// of the room, but the reflector/AP being faulted is ONE physical device:
/// the coordinator mirrors the perturbation onto every clone inside a
/// single FaultInjector window and drives lease failover, device
/// quarantine and fault-aware admission from the same window.
struct ArenaFault {
  enum class Kind : std::uint8_t {
    /// Instantaneous power-cycle: registers wiped on every clone; each
    /// AP's own epoch-mismatch detection recalibrates on next commit.
    kReflectorReboot,
    /// Amplifier gain sag ramping 0 -> magnitude_db over the window.
    kReflectorGainSag,
    /// AP front-end brownout: an SNR penalty on every attached user for
    /// the window (the AP radio itself keeps running).
    kApBrownout,
  };
  Kind kind{Kind::kReflectorReboot};
  /// Reflector index, or AP index for kApBrownout.
  std::size_t resource{0};
  sim::TimePoint start{};
  /// Window length; ignored by kReflectorReboot (a pulse).
  sim::Duration duration{std::chrono::seconds{1}};
  /// Peak sag / brownout penalty; ignored by kReflectorReboot.
  double magnitude_db{6.0};
};

/// Order-insensitive-field digest of a QoE report for the bit-identity
/// gate: every deterministic outcome field (frame ledger, SNR/rate sums,
/// transport counters and latency percentiles, burst counters), doubles by
/// bit pattern. QoeReport::arena is deliberately excluded — its *presence*
/// is the only difference between a 1-user arena run and its standalone
/// reference.
std::uint64_t qoe_fingerprint(const vr::QoeReport& report);

class Coordinator {
 public:
  /// Per-user world builders, shared verbatim by run() and
  /// standalone_run() so both construct the same bits. The scene passed in
  /// is the user's own clone at its final address.
  using MotionFactory = std::function<std::unique_ptr<vr::Motion>(
      std::size_t user, const core::Scene& scene)>;
  using ScriptFactory =
      std::function<vr::BlockageScript(std::size_t user)>;

  struct Config {
    std::size_t users{2};
    /// AP grid: user u attaches to ap_positions[u % K] (their clone's AP
    /// moves there). Empty = everyone shares the prototype AP's position
    /// (one physical AP: pure airtime sharing, no AP-to-AP interference).
    std::vector<geom::Vec2> ap_positions;
    /// Boresight azimuths paired with ap_positions (an AP moved to another
    /// corner must re-aim into the room). Empty keeps the prototype's
    /// mounting orientation.
    std::vector<double> ap_orientations;
    ReflectorArbiter::Config arbiter{};
    AdmissionController::Config admission{};
    InterferenceConfig interference{};
    /// Session template: duration, display, transport, burst... applied to
    /// every user; per-user seeds and the arena hooks are filled in by the
    /// coordinator.
    vr::Session::Config session{};
    /// LinkManager template; the lease hooks are filled in per user.
    core::LinkManager::Config link{};
    std::uint64_t seed{1};
    /// Shared-resource fault script (empty = fault-free: none of the
    /// chaos machinery runs and the arena is bit-identical to the
    /// pre-fault coordinator).
    std::vector<ArenaFault> faults;
    /// Lease failover: when a reflector faults, quarantine it arbiter-side,
    /// strip + revoke the holder, fast-track the displaced holder, and keep
    /// the device un-leased until a coordinator re-probe succeeds.
    /// Disabling this is the chaos bench's tripwire — holders then ride
    /// quarantined devices and the offline verifier's lease-liveness
    /// invariant (F) must catch it from the log alone.
    bool lease_failover{true};
    /// Coordinator-stream event-log sink: control-tick interleave markers,
    /// lease revocations and admission transitions land here.
    log::Recorder* recorder{nullptr};
    /// Per-user event-log sinks: when set, user u's session + link manager
    /// record into user_recorder(u) (nullptr = that user unlogged).
    std::function<log::Recorder*(std::size_t user)> user_recorder;
  };

  struct UserResult {
    vr::QoeReport report;
    core::LinkManager::Stats link_stats;
  };

  /// Arena-chaos observability (surfaced in bench/arena_chaos and README).
  struct ChaosStats {
    std::uint64_t faults_applied{0};
    /// Holders stripped + revoked because their device was quarantined.
    std::uint64_t failover_revocations{0};
    /// Arbiter-side holders with no manager-side lease, reaped by the
    /// watchdog (0 in a healthy run: release paths keep the sides in sync).
    std::uint64_t orphan_leases_reaped{0};
    std::uint64_t device_quarantines{0};
    std::uint64_t device_restores{0};
    /// Admission samples that carried the fault-degraded flag.
    std::uint64_t fault_degraded_samples{0};
  };

  /// The one control cadence: lease renewal, share recomputation, device
  /// re-probes, the orphan watchdog, lease snapshots and the per-user
  /// transport ledger audit all run on this tick, and admission on every
  /// 12th (the other timing constants are in coordinator.cpp).
  static constexpr sim::Duration kControlInterval{
      std::chrono::milliseconds{20}};

  Coordinator(sim::Simulator& simulator, const core::Scene& prototype,
              Config config, MotionFactory motion = {},
              ScriptFactory script = {});
  ~Coordinator();

  /// Starts every session, drives the simulator to the session end, and
  /// returns one result per user (session report + link-manager stats,
  /// with QoeReport::arena fully populated).
  std::vector<UserResult> run();

  /// Builds user `user`'s world exactly as run() would — same clone, same
  /// calibration, same derived seeds — and runs it as a standalone
  /// Session on a fresh simulator with NO arena hooks. The determinism
  /// contract's reference run: qoe_fingerprint of this must equal the
  /// fingerprint of a 1-user run()'s report.
  static vr::QoeReport standalone_run(const core::Scene& prototype,
                                      const Config& config,
                                      const MotionFactory& motion,
                                      const ScriptFactory& script,
                                      std::size_t user);

  const ReflectorArbiter& arbiter() const { return arbiter_; }
  const AdmissionController& admission() const { return admission_; }
  const ChaosStats& chaos() const { return chaos_; }
  /// Live per-user probe for the chaos bench's 20 ms isolation checker.
  const net::Transport* user_transport(std::size_t user) const {
    return users_.at(user)->session.transport();
  }
  /// The user's own per-clone link manager (reflector health, calibration).
  const core::LinkManager& user_manager(std::size_t user) const {
    return users_.at(user)->strategy.manager();
  }
  /// True while `user` is inside a fault's blast radius (displaced holder
  /// or browned-out AP), including the post-window grace.
  bool fault_degraded(std::size_t user, sim::TimePoint now) const {
    return now < fault_until_.at(user) ||
           (!ap_brownout_db_.empty() &&
            ap_brownout_db_[users_.at(user)->ap_index] > 0.0);
  }

 private:
  /// Everything derived per user before the hooks go in; built identically
  /// by run() and standalone_run().
  struct UserWorld {
    core::Scene scene;
    std::mt19937_64 manager_rng;
    core::LinkManager::Config link_config;
    vr::Session::Config session_config;
    std::size_t ap_index{0};
    double offered_mbps{0.0};
  };

  struct User {
    core::Scene scene;
    std::unique_ptr<vr::Motion> motion;
    std::optional<vr::BlockageScript> script;
    vr::MovrStrategy strategy;
    vr::Session session;
    std::size_t ap_index{0};
    double offered_mbps{0.0};
    // Admission-window deltas of the transport's live counters.
    std::uint64_t last_misses{0};
    std::uint64_t last_frames{0};
    // Per-control-tick ledger audit results (folded into ArenaLinkStats).
    std::uint64_t ledger_checks{0};
    std::uint64_t ledger_violations{0};

    User(sim::Simulator& simulator, UserWorld world,
         const MotionFactory& motion_factory,
         const ScriptFactory& script_factory, std::size_t index);
  };

  static UserWorld build_user_world(const core::Scene& prototype,
                                    const Config& config, std::size_t user);

  bool try_acquire(std::size_t user, std::size_t reflector);
  double penalty_for(std::size_t user);
  void control_tick();
  void admission_tick(sim::TimePoint now);
  void recompute_shares();
  void schedule_faults();
  /// A reflector fault window opened (or a reboot pulsed): device
  /// quarantine + (when enabled) lease failover for the holder.
  void on_reflector_fault(std::size_t r, sim::TimePoint window_end,
                          bool windowed);
  void on_reflector_fault_close(std::size_t r);
  void mark_fault_degraded(std::size_t user, sim::TimePoint until);
  /// Re-probe quarantined devices whose backoff expired; restore and
  /// un-quarantine the arbiter side on success.
  void device_probe_tick(sim::TimePoint now);
  /// Reap arbiter-side holders whose manager no longer holds the lease.
  void orphan_watchdog(sim::TimePoint now);
  void snapshot_leases();
  void record_arena_fault(log::EventKind kind, const ArenaFault& fault);

  sim::Simulator& simulator_;
  Config config_;
  MotionFactory motion_factory_;
  ScriptFactory script_factory_;
  ReflectorArbiter arbiter_;
  AdmissionController admission_;
  std::vector<std::unique_ptr<User>> users_;
  std::vector<double> share_;  // per user, refreshed each control tick
  sim::TimePoint end_{};
  int ticks_since_admission_{0};
  // --- chaos machinery (inert when config_.faults is empty) -------------
  std::unique_ptr<sim::FaultInjector> injector_;
  /// Device-level health of the shared reflectors (quarantine, backoff,
  /// re-probe; default config), distinct from each user's link-health
  /// monitor.
  core::HealthMonitor device_health_;
  ChaosStats chaos_;
  std::vector<double> ap_brownout_db_;        // per AP, live penalty
  std::vector<int> active_reflector_faults_;  // per reflector, open windows
  std::vector<sim::TimePoint> fault_until_;   // per user, degraded until
  std::vector<sim::TimePoint> orphan_since_;  // per reflector
  std::vector<std::uint8_t> orphan_armed_;    // per reflector
  // Scratch, reused per call (the control plane allocates only on warmup).
  std::vector<Interferer> interferer_scratch_;
  std::vector<AdmissionController::Sample> sample_scratch_;
  std::vector<AdmissionController::State> admission_state_scratch_;
  std::vector<double> ap_weight_scratch_;
};

}  // namespace movr::arena
