// Transactional config epochs + reflector safe-mode: the hardened control
// plane between the AP and its reflectors.
//
// The gain loop is only stable while G_dB < L_dB (paper Section 4.2), so a
// stale or corrupted gain command is not cosmetic — it can push the
// amplifier into oscillation. The raw control link (sim::ControlChannel)
// loses, duplicates, reorders, corrupts and partitions; this layer turns
// the reflector's control surface into something the AP can reason about:
//
//  - *Config epochs* (AP -> reflector): the AP stages (θrx, θtx, gain) as a
//    numbered epoch — three staged field messages plus a commit, all
//    carrying the epoch's sequence number. The reflector applies the epoch
//    ATOMICALLY: a commit whose stage is incomplete (fields lost or
//    reordered behind it — per-message jitter shuffles arrival order) is
//    held pending and applies the moment the link layer's retries deliver
//    the stragglers; stragglers from superseded attempts never clobber the
//    live stage. Every commit is acked with (applied_seq, boot_epoch), so
//    an ack carrying an old applied_seq tells the AP the epoch has not
//    landed yet.
//  - *State digests* (AP <- reflector): the AP periodically queries a
//    digest of the reflector's safety-critical applied state (θrx quantised,
//    gain code, applied_seq, boot_epoch). A mismatch against what the AP
//    believes it committed — undetected corruption, a missed commit, a
//    reboot, an autonomous safe-mode gain change — is a *divergence*: the
//    AP replays the epoch and routes the reflector through the existing
//    core::HealthMonitor quarantine/recalibration path. θtx is excluded
//    from the digest by design: pose retargeting legitimately moves it
//    between epochs, and its safety contribution is covered by the
//    worst-case floor below.
//  - *Safe mode* (reflector-side): a control-silence watchdog. After
//    `silence_timeout` without any AP message the reflector autonomously
//    ramps its gain to a provably-stable floor: worst-case isolation over
//    the entire steerable sector (hw::LeakageModel::worst_case_isolation)
//    minus a margin — stable at every beam combination, so the reflector
//    needs no RX chain and no idea where its beams point to be safe. A
//    current-sensor guard (the reflector's only observable, Section 4.2)
//    also trips to the floor if the amplifier draws oscillation-level
//    current. Safe mode exits only when the AP re-asserts the registers
//    (an epoch commit or a direct register write) — reconnecting alone
//    does not restore gain; the digest divergence the safe-mode entry
//    caused drives the AP's reconciliation replay.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include <core/health.hpp>
#include <core/reflector.hpp>
#include <log/recorder.hpp>
#include <rf/units.hpp>
#include <sim/control_channel.hpp>
#include <sim/simulator.hpp>
#include <sim/time.hpp>

namespace movr::core {

/// One transactional reflector configuration.
struct ConfigEpoch {
  double rx_angle{0.0};  // array-local radians
  double tx_angle{0.0};  // array-local radians
  std::uint32_t gain_code{0};
};

/// Digest of the safety-critical applied state. Both sides compute it the
/// same way: the reflector over its registers, the AP over what it
/// committed. The angle is wrapped and quantised to a microradian so the
/// phased array's wrap-on-steer cannot cause false mismatches.
std::uint32_t config_digest(double rx_angle, std::uint32_t gain_code,
                            std::uint64_t applied_seq,
                            std::uint32_t boot_epoch);

/// Control-plane incident counters surfaced into vr::QoeReport alongside
/// the transport metrics: how often the control plane itself was the story.
struct ControlPlaneIncidents {
  std::uint64_t partitions_entered{0};
  std::uint64_t partitions_healed{0};
  std::uint64_t divergences_detected{0};  // digest caught drifted state
  std::uint64_t reconciliations{0};       // epoch replays issued
  std::uint64_t reboots_detected{0};      // boot-epoch mismatches in acks
  std::uint64_t ack_timeouts{0};
  std::uint64_t safe_mode_entries{0};     // watchdog silence trips
  std::uint64_t oscillation_trips{0};     // current-guard trips
};

/// Reflector-side firmware agent: owns the config-epoch receive protocol
/// and the safe-mode watchdog for ONE reflector. Attached to the control
/// channel under the reflector's control name; legacy topics (rx_angle,
/// gain_code, ... — the angle-search vocabulary) are forwarded to
/// MovrReflector::handle unchanged.
class ReflectorConfigAgent {
 public:
  struct Config {
    /// Control silence that trips safe mode.
    sim::Duration silence_timeout{std::chrono::milliseconds{400}};
    /// Watchdog evaluation cadence (an Arduino timer interrupt).
    sim::Duration watchdog_tick{std::chrono::milliseconds{100}};
    /// Safe floor = worst-case isolation - this margin.
    rf::Decibels safe_margin{3.0};
    /// Supply current above this for `oscillation_strikes` consecutive
    /// ticks trips the guard. 0 = derive from the amplifier model
    /// (quiescent + half the saturation-level signal + knee current).
    double oscillation_current_a{0.0};
    int oscillation_strikes{2};
    /// When false the watchdog loop never arms — the deliberately broken
    /// build the chaos soak's gain-<=-floor invariant must catch.
    bool watchdog_enabled{true};
  };

  /// RF drive present at the RX connector, feeding the current sensor
  /// (physics, supplied by the scene; defaults to a quiet -90 dBm). An
  /// oscillating loop rails regardless of drive, so the guard works even
  /// with the default.
  using InputProbe = std::function<rf::DbmPower()>;

  ReflectorConfigAgent(sim::Simulator& simulator,
                       sim::ControlChannel& control, MovrReflector& reflector,
                       Config config, std::mt19937_64 rng);

  /// Attaches handle() under the reflector's control name and starts the
  /// watchdog loop (when enabled).
  void start();
  void stop() { running_ = false; }

  void set_input_probe(InputProbe probe) { input_probe_ = std::move(probe); }

  /// Session event-log sink for safe-mode transitions; `index` identifies
  /// this reflector in the log's payloads.
  void set_recorder(log::Recorder* recorder, std::int64_t index) {
    recorder_ = recorder;
    log_index_ = index;
  }

  void handle(const sim::ControlMessage& message);

  /// Endpoint the agent's acks and digest replies go to.
  std::string reply_endpoint() const;

  bool in_safe_mode() const { return safe_mode_; }
  std::uint64_t applied_seq() const { return applied_seq_; }
  /// The DAC code realising the provably-stable gain floor.
  std::uint32_t safe_gain_code() const { return safe_code_; }
  std::uint32_t digest() const;

  struct Stats {
    std::uint64_t epochs_applied{0};
    std::uint64_t stale_commits{0};       // seq <= already-applied
    std::uint64_t incomplete_commits{0};  // commit before its fields
    std::uint64_t digest_replies{0};
    std::uint64_t acks_sent{0};
    std::uint64_t safe_mode_entries{0};
    std::uint64_t oscillation_trips{0};
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Staged {
    std::uint64_t seq{0};
    std::optional<double> rx;
    std::optional<double> tx;
    std::optional<double> gain;
    /// The commit overtook some of its fields (independent per-message
    /// jitter shuffles arrival order): hold it, and apply the moment the
    /// link layer's retries deliver the stragglers.
    bool commit_pending{false};

    bool complete() const { return rx && tx && gain; }
  };

  void watchdog_tick();
  void enter_safe_mode(bool oscillation);
  void check_reboot();
  void apply_commit(const sim::ControlMessage& message);
  void apply_staged();
  void send_ack();
  void compute_safe_code();

  sim::Simulator& simulator_;
  sim::ControlChannel& control_;
  MovrReflector& reflector_;
  Config config_;
  std::mt19937_64 rng_;
  InputProbe input_probe_;
  log::Recorder* recorder_{nullptr};
  std::int64_t log_index_{0};
  Staged staged_;
  std::uint64_t applied_seq_{0};
  std::uint32_t last_boot_epoch_{0};
  sim::TimePoint last_heard_{};
  bool safe_mode_{false};
  bool running_{false};
  int oscillation_strikes_{0};
  std::uint32_t safe_code_{0};
  double oscillation_threshold_a_{0.0};
  Stats stats_;
};

/// AP-side control plane: commits config epochs, consumes acks, runs the
/// periodic digest query loop, detects partitions and divergences, and
/// drives reconciliation through a bound core::HealthMonitor.
class ControlPlane {
 public:
  struct Config {
    /// Per-reflector digest query cadence.
    sim::Duration digest_interval{std::chrono::milliseconds{200}};
    /// A commit ack / digest reply not seen by then counts as missed
    /// (covers BLE latency + link-layer retries with slack).
    sim::Duration reply_timeout{std::chrono::milliseconds{60}};
    /// Consecutive missed digest replies before the reflector counts as
    /// partitioned (and is quarantined).
    int missed_replies_to_partition{3};
    /// Minimum spacing between reconciliation replays per reflector.
    sim::Duration reconcile_backoff{std::chrono::milliseconds{100}};
  };

  ControlPlane(sim::Simulator& simulator, sim::ControlChannel& control,
               Config config);

  /// Reconciliation and partition detection feed this monitor (typically
  /// the LinkManager's, so quarantine/recalibration compose).
  void bind_health(HealthMonitor* health) { health_ = health; }

  /// Session event-log sink for epoch/partition/divergence transitions.
  void set_recorder(log::Recorder* recorder) { recorder_ = recorder; }

  /// Registers reflector `index`. `agent` is optional and used ONLY for
  /// incident reporting (safe-mode counters) — never for control
  /// decisions; the AP's view of the reflector is the message stream.
  void manage(std::size_t index, const MovrReflector& reflector,
              const ReflectorConfigAgent* agent = nullptr);

  /// Stages and commits `epoch` to reflector `index` under a fresh
  /// sequence number. Asynchronous; the ack (or its absence) is handled
  /// internally. Returns the epoch's sequence number.
  std::uint64_t commit(std::size_t index, const ConfigEpoch& epoch);

  /// Starts the periodic digest loop over all managed reflectors.
  void start();
  void stop() { running_ = false; }

  bool partitioned(std::size_t index) const;
  /// Age of reflector `index`'s open divergence episode (zero when its
  /// digest matches), regardless of partition state.
  sim::Duration divergence_age(std::size_t index, sim::TimePoint now) const;

  struct Stats {
    std::uint64_t epochs_committed{0};
    std::uint64_t acks_received{0};
    std::uint64_t ack_timeouts{0};
    std::uint64_t digest_queries{0};
    std::uint64_t digest_replies{0};
    std::uint64_t divergences_detected{0};
    std::uint64_t reconciliations{0};
    std::uint64_t partitions_entered{0};
    std::uint64_t partitions_healed{0};
    std::uint64_t reboots_detected{0};
  };
  const Stats& stats() const { return stats_; }

  /// Stats + (when agents were registered) reflector-side safe-mode
  /// counters, packaged for vr::QoeReport.
  ControlPlaneIncidents incidents() const;

 private:
  struct Managed {
    std::size_t index{0};
    std::string endpoint;        // reflector's control endpoint
    std::string reply_endpoint;  // where its acks/digests arrive
    const ReflectorConfigAgent* agent{nullptr};  // reporting only
    ConfigEpoch last_epoch{};
    std::uint32_t max_gain_code{0};
    std::uint64_t expected_seq{0};
    std::uint32_t expected_digest{0};
    std::uint32_t boot_epoch{0};
    bool awaiting_ack{false};
    bool divergent{false};
    sim::TimePoint divergent_since{};
    bool partitioned{false};
    int missed_replies{0};
    bool awaiting_digest{false};
    std::uint64_t digest_query_seq{0};
    sim::TimePoint last_reconcile{sim::Duration{-1'000'000'000}};
  };

  void on_reply(std::size_t slot, const sim::ControlMessage& message);
  void on_ack(std::size_t slot, const sim::ControlMessage& message);
  void on_digest(std::size_t slot, const sim::ControlMessage& message);
  void digest_tick(std::size_t slot);
  void note_unreachable(Managed& m);
  void note_reachable(Managed& m);
  void mark_divergent(Managed& m, const std::string& reason);
  void reconcile(std::size_t slot);
  std::uint64_t send_epoch(std::size_t slot);
  void refresh_expected(Managed& m);
  std::size_t slot_for(std::size_t index) const;

  sim::Simulator& simulator_;
  sim::ControlChannel& control_;
  Config config_;
  HealthMonitor* health_{nullptr};
  log::Recorder* recorder_{nullptr};
  std::vector<Managed> managed_;
  std::uint64_t next_seq_{0};
  bool running_{false};
  Stats stats_;
};

}  // namespace movr::core
