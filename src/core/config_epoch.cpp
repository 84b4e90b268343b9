#include <core/config_epoch.hpp>

#include <algorithm>
#include <cmath>

#include <geom/angle.hpp>
#include <hw/dac.hpp>
#include <hw/leakage.hpp>

namespace movr::core {

namespace {

// Payload validation shared by the config vocabulary: a gain code rides a
// double over a corruptible link, so it must be range-checked before the
// cast (same discipline as MovrReflector::handle).
bool valid_gain_payload(double value) {
  return std::isfinite(value) && value >= 0.0 && value <= 1e9;
}

bool valid_epoch_payload(double value) {
  return std::isfinite(value) && value >= 0.0 && value <= 4.0e9;
}

}  // namespace

std::uint32_t config_digest(double rx_angle, std::uint32_t gain_code,
                            std::uint64_t applied_seq,
                            std::uint32_t boot_epoch) {
  // FNV-1a over the quantised fields, folded to 32 bits so the digest
  // round-trips losslessly through a double control payload. The angle is
  // wrapped exactly the way rf::PhasedArray::steer wraps it, then quantised
  // to a microradian: both sides of the protocol feed the same commanded
  // double through the same pipeline, so an honest reflector always matches
  // and a single flipped mantissa bit virtually never does.
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint64_t>(
      std::llround(geom::wrap_two_pi(rx_angle) * 1e6)));
  mix(gain_code);
  mix(applied_seq);
  mix(boot_epoch);
  return static_cast<std::uint32_t>(hash ^ (hash >> 32));
}

// --- ReflectorConfigAgent -----------------------------------------------

ReflectorConfigAgent::ReflectorConfigAgent(sim::Simulator& simulator,
                                           sim::ControlChannel& control,
                                           MovrReflector& reflector,
                                           Config config, std::mt19937_64 rng)
    : simulator_{simulator},
      control_{control},
      reflector_{reflector},
      config_{config},
      rng_{rng} {
  compute_safe_code();
}

void ReflectorConfigAgent::compute_safe_code() {
  const auto& fe = reflector_.front_end().config();

  // The floor is a design-time property of the hardware build: worst-case
  // isolation over the whole steerable sector minus a margin. Any gain at
  // or below it is stable at EVERY beam combination, which is the only
  // kind of guarantee a device with no RX chain can honour.
  const hw::LeakageModel leakage{fe.leakage};
  const double min_gain = fe.amplifier.min_gain.value();
  const double span = fe.amplifier.max_gain.value() - min_gain;
  const double floor_db =
      std::max(leakage.worst_case_isolation().value() -
                   config_.safe_margin.value(),
               min_gain);

  const hw::Dac dac{fe.gain_dac};
  std::uint32_t code = 0;
  if (span > 0.0 && fe.gain_dac.full_scale > 0.0) {
    const auto realised = [&](std::uint32_t c) {
      return min_gain + span * dac.output(c) / fe.gain_dac.full_scale;
    };
    code = dac.code_for((floor_db - min_gain) / span * fe.gain_dac.full_scale);
    // code_for rounds to nearest; the safety direction is DOWN.
    while (code > 0 && realised(code) > floor_db + 1e-9) {
      --code;
    }
  }
  safe_code_ = code;

  oscillation_threshold_a_ = config_.oscillation_current_a;
  if (oscillation_threshold_a_ <= 0.0) {
    // An unstable loop rails the amplifier at saturation, drawing the
    // full class-AB signal current plus the compression knee on top of
    // quiescent. Half-way between quiescent and railed clears both the
    // sensor noise and normal high-drive operation.
    const auto& amp = fe.amplifier;
    const double sat_watts =
        std::pow(10.0, (amp.saturation_power.value() - 30.0) / 10.0);
    oscillation_threshold_a_ =
        amp.quiescent_current_a +
        0.5 * (amp.current_per_watt * sat_watts + amp.compression_current_a);
  }
}

void ReflectorConfigAgent::start() {
  running_ = true;
  last_heard_ = simulator_.now();
  last_boot_epoch_ = reflector_.boot_epoch();
  control_.attach(reflector_.control_name(),
                  [this](const sim::ControlMessage& message) {
                    handle(message);
                  });
  if (config_.watchdog_enabled) {
    simulator_.after(config_.watchdog_tick, [this] { watchdog_tick(); });
  }
}

std::string ReflectorConfigAgent::reply_endpoint() const {
  return "ap/" + reflector_.control_name();
}

std::uint32_t ReflectorConfigAgent::digest() const {
  return config_digest(reflector_.front_end().rx_array().steering(),
                       reflector_.front_end().gain_code(), applied_seq_,
                       reflector_.boot_epoch());
}

void ReflectorConfigAgent::check_reboot() {
  const std::uint32_t epoch = reflector_.boot_epoch();
  if (epoch == last_boot_epoch_) {
    return;
  }
  // Fresh boot: registers are wiped (gain code 0 — already below the
  // floor), the staged epoch is gone, and applied_seq restarts. The AP
  // learns about it from the boot_epoch in the next ack / digest mismatch.
  last_boot_epoch_ = epoch;
  staged_ = Staged{};
  applied_seq_ = 0;
  if (safe_mode_ && recorder_ != nullptr) {
    recorder_->record(log::EventKind::kSafeModeExit,
                      {{"reflector", log_index_}, {"reboot", 1}});
  }
  safe_mode_ = false;
  oscillation_strikes_ = 0;
  last_heard_ = simulator_.now();
}

void ReflectorConfigAgent::watchdog_tick() {
  if (!running_) {
    return;
  }
  check_reboot();
  const sim::TimePoint now = simulator_.now();

  // Level-triggered, not edge-triggered: while the control link is silent
  // the gain is re-clamped to the floor whenever it sits above it, even if
  // the safe-mode flag is already set — the AP's direct recalibration path
  // can restore gain without this agent hearing about it, and a stale flag
  // must not disarm the watchdog for the next partition.
  if (now - last_heard_ >= config_.silence_timeout &&
      (!safe_mode_ || reflector_.front_end().gain_code() > safe_code_)) {
    enter_safe_mode(/*oscillation=*/false);
  }

  // Oscillation guard: the supply current is the reflector's only
  // observable. A railed reading for `oscillation_strikes` consecutive
  // ticks (debounce against sensor noise) trips the floor immediately,
  // silence or not.
  const rf::DbmPower drive =
      input_probe_ ? input_probe_() : rf::DbmPower{-90.0};
  const double amps = reflector_.front_end().read_current(drive, rng_);
  if (amps >= oscillation_threshold_a_ &&
      reflector_.front_end().gain_code() > safe_code_) {
    if (++oscillation_strikes_ >= config_.oscillation_strikes) {
      enter_safe_mode(/*oscillation=*/true);
      oscillation_strikes_ = 0;
    }
  } else {
    oscillation_strikes_ = 0;
  }

  simulator_.after(config_.watchdog_tick, [this] { watchdog_tick(); });
}

void ReflectorConfigAgent::enter_safe_mode(bool oscillation) {
  if (oscillation) {
    ++stats_.oscillation_trips;
  }
  if (!safe_mode_) {
    ++stats_.safe_mode_entries;
    if (recorder_ != nullptr) {
      recorder_->record(log::EventKind::kSafeModeEnter,
                        {{"reflector", log_index_},
                         {"oscillation", oscillation ? 1 : 0}});
    }
  }
  safe_mode_ = true;
  if (reflector_.front_end().gain_code() > safe_code_) {
    reflector_.front_end().set_gain_code(safe_code_);
  }
}

void ReflectorConfigAgent::apply_commit(const sim::ControlMessage& message) {
  if (message.seq <= applied_seq_ || message.seq < staged_.seq) {
    // A reordered or replayed commit from an attempt that is already
    // applied or already superseded; re-ack so the AP's retry logic
    // converges on the truth instead of timing out, and leave the live
    // stage alone.
    ++stats_.stale_commits;
    send_ack();
    return;
  }
  if (message.seq == staged_.seq && staged_.complete()) {
    apply_staged();
    return;
  }
  // The commit overtook some (or all) of its field messages. Nothing is
  // applied yet — atomicity means all-or-nothing — but the commit is held
  // on the stage: the link layer's retries will deliver the stragglers and
  // the epoch applies then (see handle()). The interim ack carries the OLD
  // applied_seq, telling the AP the epoch has not landed yet.
  ++stats_.incomplete_commits;
  if (staged_.seq != message.seq) {
    staged_ = Staged{};
    staged_.seq = message.seq;
  }
  staged_.commit_pending = true;
  send_ack();
}

void ReflectorConfigAgent::apply_staged() {
  auto& fe = reflector_.front_end();
  fe.steer_rx(*staged_.rx);
  fe.steer_tx(*staged_.tx);
  fe.set_gain_code(static_cast<std::uint32_t>(std::round(*staged_.gain)));
  applied_seq_ = staged_.seq;
  staged_ = Staged{};
  if (safe_mode_ && recorder_ != nullptr) {
    recorder_->record(log::EventKind::kSafeModeExit,
                      {{"reflector", log_index_}, {"reboot", 0}});
  }
  safe_mode_ = false;  // the AP has re-asserted the registers
  ++stats_.epochs_applied;
  send_ack();
}

void ReflectorConfigAgent::send_ack() {
  control_.send(reply_endpoint(),
                sim::ControlMessage{"cfg_ack",
                                    static_cast<double>(reflector_.boot_epoch()),
                                    0, applied_seq_});
  ++stats_.acks_sent;
}

void ReflectorConfigAgent::handle(const sim::ControlMessage& message) {
  last_heard_ = simulator_.now();
  check_reboot();

  if (message.topic == "cfg_rx" || message.topic == "cfg_tx") {
    if (!MovrReflector::valid_angle(message.value) || message.seq == 0 ||
        message.seq <= applied_seq_ || message.seq < staged_.seq) {
      // Firmware-rejected payload, or a straggler from an attempt that is
      // already applied or superseded — it must not clobber the live stage.
      return;
    }
    if (staged_.seq != message.seq) {
      staged_ = Staged{};
      staged_.seq = message.seq;
    }
    (message.topic == "cfg_rx" ? staged_.rx : staged_.tx) = message.value;
    if (staged_.commit_pending && staged_.complete()) {
      apply_staged();
    }
  } else if (message.topic == "cfg_gain") {
    if (!valid_gain_payload(message.value) || message.seq == 0 ||
        message.seq <= applied_seq_ || message.seq < staged_.seq) {
      return;
    }
    if (staged_.seq != message.seq) {
      staged_ = Staged{};
      staged_.seq = message.seq;
    }
    staged_.gain = message.value;
    if (staged_.commit_pending && staged_.complete()) {
      apply_staged();
    }
  } else if (message.topic == "cfg_commit") {
    apply_commit(message);
  } else if (message.topic == "cfg_digest_query") {
    control_.send(reply_endpoint(),
                  sim::ControlMessage{"cfg_digest",
                                      static_cast<double>(digest()), 0,
                                      message.seq});
    ++stats_.digest_replies;
  } else {
    // Legacy angle-search / gain-control vocabulary: forward to the
    // firmware dispatcher unchanged. A (valid) direct gain write is the AP
    // re-asserting the gain register, which ends safe mode.
    if (message.topic == "gain_code" && valid_gain_payload(message.value)) {
      if (safe_mode_ && recorder_ != nullptr) {
        recorder_->record(log::EventKind::kSafeModeExit,
                          {{"reflector", log_index_}, {"reboot", 0}});
      }
      safe_mode_ = false;
    }
    reflector_.handle(message);
  }
}

// --- ControlPlane --------------------------------------------------------

ControlPlane::ControlPlane(sim::Simulator& simulator,
                           sim::ControlChannel& control, Config config)
    : simulator_{simulator}, control_{control}, config_{config} {}

std::size_t ControlPlane::slot_for(std::size_t index) const {
  for (std::size_t slot = 0; slot < managed_.size(); ++slot) {
    if (managed_[slot].index == index) {
      return slot;
    }
  }
  return managed_.size();
}

void ControlPlane::manage(std::size_t index, const MovrReflector& reflector,
                          const ReflectorConfigAgent* agent) {
  Managed m;
  m.index = index;
  m.endpoint = reflector.control_name();
  m.reply_endpoint = "ap/" + reflector.control_name();
  m.agent = agent;
  m.max_gain_code = reflector.front_end().max_gain_code();
  m.boot_epoch = reflector.boot_epoch();
  const std::size_t slot = managed_.size();
  managed_.push_back(std::move(m));
  control_.attach(managed_[slot].reply_endpoint,
                  [this, slot](const sim::ControlMessage& message) {
                    on_reply(slot, message);
                  });
  if (health_ != nullptr) {
    health_->track(index + 1);
  }
}

void ControlPlane::refresh_expected(Managed& m) {
  m.expected_digest =
      config_digest(m.last_epoch.rx_angle, m.last_epoch.gain_code,
                    m.expected_seq, m.boot_epoch);
}

std::uint64_t ControlPlane::send_epoch(std::size_t slot) {
  Managed& m = managed_[slot];
  const std::uint64_t seq = ++next_seq_;
  m.expected_seq = seq;
  m.awaiting_ack = true;
  refresh_expected(m);
  if (recorder_ != nullptr) {
    recorder_->record(log::EventKind::kEpochStage,
                      {{"reflector", static_cast<std::int64_t>(m.index)},
                       {"seq", static_cast<std::int64_t>(seq)}});
  }
  const auto& epoch = m.last_epoch;
  control_.send(m.endpoint,
                sim::ControlMessage{"cfg_rx", epoch.rx_angle, 0, seq});
  control_.send(m.endpoint,
                sim::ControlMessage{"cfg_tx", epoch.tx_angle, 0, seq});
  control_.send(m.endpoint,
                sim::ControlMessage{"cfg_gain",
                                    static_cast<double>(epoch.gain_code), 0,
                                    seq});
  control_.send(m.endpoint, sim::ControlMessage{"cfg_commit", 0.0, 0, seq});
  simulator_.after(config_.reply_timeout, [this, slot, seq] {
    Managed& inner = managed_[slot];
    if (inner.awaiting_ack && inner.expected_seq == seq) {
      inner.awaiting_ack = false;
      ++stats_.ack_timeouts;
      if (!inner.partitioned) {
        reconcile(slot);
      }
    }
  });
  return seq;
}

std::uint64_t ControlPlane::commit(std::size_t index,
                                   const ConfigEpoch& epoch) {
  const std::size_t slot = slot_for(index);
  if (slot == managed_.size()) {
    return 0;
  }
  Managed& m = managed_[slot];
  m.last_epoch = epoch;
  m.last_epoch.gain_code = std::min(epoch.gain_code, m.max_gain_code);
  ++stats_.epochs_committed;
  const std::uint64_t seq = send_epoch(slot);
  if (recorder_ != nullptr) {
    recorder_->record(log::EventKind::kEpochCommit,
                      {{"reflector", static_cast<std::int64_t>(index)},
                       {"seq", static_cast<std::int64_t>(seq)}});
  }
  return seq;
}

void ControlPlane::start() {
  running_ = true;
  for (std::size_t slot = 0; slot < managed_.size(); ++slot) {
    // Stagger the per-reflector loops so queries don't burst in lockstep.
    const auto offset = sim::Duration{static_cast<long long>(slot) * 1'000'000};
    simulator_.after(config_.digest_interval + offset,
                     [this, slot] { digest_tick(slot); });
  }
}

void ControlPlane::digest_tick(std::size_t slot) {
  if (!running_) {
    return;
  }
  Managed& m = managed_[slot];
  const std::uint64_t qseq = ++next_seq_;
  m.awaiting_digest = true;
  m.digest_query_seq = qseq;
  control_.send(m.endpoint,
                sim::ControlMessage{"cfg_digest_query", 0.0, 0, qseq});
  ++stats_.digest_queries;
  simulator_.after(config_.reply_timeout, [this, slot, qseq] {
    Managed& inner = managed_[slot];
    if (inner.awaiting_digest && inner.digest_query_seq == qseq) {
      inner.awaiting_digest = false;
      ++inner.missed_replies;
      if (!inner.partitioned &&
          inner.missed_replies >= config_.missed_replies_to_partition) {
        note_unreachable(inner);
      } else if (inner.partitioned && health_ != nullptr) {
        // Keep the reflector benched for as long as the partition lasts:
        // every missed reply refreshes the quarantine window, so the link
        // manager cannot flap back onto a reflector it cannot command.
        health_->quarantine(inner.index, simulator_.now(),
                            "control partition");
      }
    }
  });
  simulator_.after(config_.digest_interval,
                   [this, slot] { digest_tick(slot); });
}

void ControlPlane::note_unreachable(Managed& m) {
  m.partitioned = true;
  ++stats_.partitions_entered;
  if (recorder_ != nullptr) {
    recorder_->record(log::EventKind::kPartitionEnter,
                      {{"reflector", static_cast<std::int64_t>(m.index)}});
  }
  if (health_ != nullptr) {
    health_->quarantine(m.index, simulator_.now(), "control partition");
  }
}

void ControlPlane::note_reachable(Managed& m) {
  if (m.partitioned) {
    m.partitioned = false;
    ++stats_.partitions_healed;
    if (recorder_ != nullptr) {
      recorder_->record(log::EventKind::kPartitionHeal,
                        {{"reflector", static_cast<std::int64_t>(m.index)}});
    }
  }
  m.missed_replies = 0;
}

void ControlPlane::mark_divergent(Managed& m, const std::string& reason) {
  if (m.divergent) {
    return;
  }
  m.divergent = true;
  m.divergent_since = simulator_.now();
  ++stats_.divergences_detected;
  if (recorder_ != nullptr) {
    recorder_->record(log::EventKind::kDivergence,
                      {{"reflector", static_cast<std::int64_t>(m.index)}});
  }
  if (health_ != nullptr) {
    health_->note_divergence(m.index, simulator_.now(), reason);
  }
}

void ControlPlane::reconcile(std::size_t slot) {
  Managed& m = managed_[slot];
  const sim::TimePoint now = simulator_.now();
  if (m.partitioned || now - m.last_reconcile < config_.reconcile_backoff) {
    return;
  }
  m.last_reconcile = now;
  ++stats_.reconciliations;
  if (recorder_ != nullptr) {
    recorder_->record(log::EventKind::kReconcile,
                      {{"reflector", static_cast<std::int64_t>(m.index)}});
  }
  send_epoch(slot);
}

void ControlPlane::on_reply(std::size_t slot, const sim::ControlMessage& message) {
  note_reachable(managed_[slot]);
  if (message.topic == "cfg_ack") {
    on_ack(slot, message);
  } else if (message.topic == "cfg_digest") {
    on_digest(slot, message);
  }
}

void ControlPlane::on_ack(std::size_t slot, const sim::ControlMessage& message) {
  Managed& m = managed_[slot];
  ++stats_.acks_received;
  if (recorder_ != nullptr) {
    recorder_->record(log::EventKind::kEpochAck,
                      {{"reflector", static_cast<std::int64_t>(m.index)},
                       {"seq", static_cast<std::int64_t>(message.seq)}});
  }
  if (message.seq == m.expected_seq) {
    m.awaiting_ack = false;
  }
  if (valid_epoch_payload(message.value)) {
    const auto boot = static_cast<std::uint32_t>(std::llround(message.value));
    if (boot > m.boot_epoch) {
      // The reflector rebooted since we last looked: its registers are
      // wiped and everything we committed is gone. Re-baseline, route it
      // through the recalibration path, and replay the epoch.
      m.boot_epoch = boot;
      ++stats_.reboots_detected;
      if (health_ != nullptr) {
        health_->note_reboot(m.index, simulator_.now());
      }
      refresh_expected(m);
      reconcile(slot);
      return;
    }
  }
  if (m.awaiting_ack && message.seq < m.expected_seq) {
    // The commit reached the reflector but did not apply (fields lost or
    // reordered behind it): replay the whole epoch under a fresh seq.
    m.awaiting_ack = false;
    reconcile(slot);
  }
}

void ControlPlane::on_digest(std::size_t slot,
                             const sim::ControlMessage& message) {
  Managed& m = managed_[slot];
  ++stats_.digest_replies;
  m.awaiting_digest = false;
  const bool matches =
      std::isfinite(message.value) && message.value >= 0.0 &&
      message.value <= 4.0e9 &&
      static_cast<std::uint32_t>(std::llround(message.value)) ==
          m.expected_digest;
  if (matches) {
    m.divergent = false;
    return;
  }
  if (m.awaiting_ack) {
    return;  // commit in flight: the reflector is legitimately behind
  }
  if (!m.divergent && health_ != nullptr &&
      health_->needs_recalibration(m.index)) {
    // A recalibration sweep is moving the registers on purpose; mismatches
    // are expected and replaying an epoch now would fight the search.
    return;
  }
  reconcile(slot);
  mark_divergent(m, "config digest divergence");
}

bool ControlPlane::partitioned(std::size_t index) const {
  const std::size_t slot = slot_for(index);
  return slot < managed_.size() && managed_[slot].partitioned;
}

sim::Duration ControlPlane::divergence_age(std::size_t index,
                                           sim::TimePoint now) const {
  const std::size_t slot = slot_for(index);
  if (slot >= managed_.size() || !managed_[slot].divergent) {
    return sim::Duration{0};
  }
  return now - managed_[slot].divergent_since;
}

ControlPlaneIncidents ControlPlane::incidents() const {
  ControlPlaneIncidents out;
  out.partitions_entered = stats_.partitions_entered;
  out.partitions_healed = stats_.partitions_healed;
  out.divergences_detected = stats_.divergences_detected;
  out.reconciliations = stats_.reconciliations;
  out.reboots_detected = stats_.reboots_detected;
  out.ack_timeouts = stats_.ack_timeouts;
  for (const auto& m : managed_) {
    if (m.agent != nullptr) {
      out.safe_mode_entries += m.agent->stats().safe_mode_entries;
      out.oscillation_trips += m.agent->stats().oscillation_trips;
    }
  }
  return out;
}

}  // namespace movr::core
