#include <core/link_manager.hpp>

#include <algorithm>

#include <geom/angle.hpp>

namespace movr::core {

LinkManager::LinkManager(sim::Simulator& simulator, Scene& scene,
                         std::mt19937_64 rng, Config config)
    : simulator_{simulator},
      scene_{scene},
      rng_{rng},
      config_{config},
      health_{config.health} {
  // The scene's reflector set is fixed for the manager's life: the
  // calibration records (captured from the reflectors as found here) and
  // the health slots are sized once, and every loop runs over records_, so
  // a reflector added later is never indexed.
  records_.reserve(scene_.reflector_count());
  for (std::size_t i = 0; i < scene_.reflector_count(); ++i) {
    const MovrReflector& reflector = scene_.reflector(i);
    records_.push_back({reflector.front_end().rx_array().steering(),
                        reflector.front_end().gain_code(),
                        reflector.boot_epoch()});
  }
  health_.track(records_.size());
}

void LinkManager::recalibrate(std::size_t index) {
  // Replay the stored calibration over the control plane. The RX beam and
  // gain code come from the AP's record; the TX beam is re-derived from the
  // tracked headset pose at commit time (BeamTracker), so only the parts
  // the reflector cannot rediscover on its own are replayed here.
  auto& reflector = scene_.reflector(index);
  const CalibrationRecord& record = records_[index];
  reflector.front_end().steer_rx(record.rx_angle);
  reflector.front_end().set_gain_code(record.gain_code);
  records_[index].boot_epoch = reflector.boot_epoch();
  health_.note_recalibrated(index);
}

bool LinkManager::reachable(std::size_t index) const {
  return !config_.reflector_reachable || config_.reflector_reachable(index);
}

bool LinkManager::via_occluded(const MovrReflector& reflector) const {
  const auto hop_occluded = [&](geom::Vec2 a, geom::Vec2 b) {
    const auto paths = scene_.paths_view(a, b);
    for (const channel::Path& path : *paths) {
      if (path.obstruction.value() <= config_.occlusion_skip_db.value()) {
        return false;
      }
    }
    return true;  // no path on this hop clears the obstruction threshold
  };
  return hop_occluded(scene_.ap().node().position(), reflector.position()) ||
         hop_occluded(reflector.position(),
                      scene_.headset().node().position());
}

bool LinkManager::acquire_lease(std::size_t index) {
  if (!config_.reflector_acquire) {
    return true;  // single-user room: every reflector is always ours
  }
  if (holds_lease_ && active_reflector_ == index) {
    return true;  // already ours
  }
  release_lease();  // at most one lease per user at a time
  if (!config_.reflector_acquire(index)) {
    if (config_.recorder) {
      config_.recorder->record(
          log::EventKind::kLeaseDeny,
          {{"reflector", static_cast<std::int64_t>(index)}});
    }
    return false;
  }
  holds_lease_ = true;
  if (config_.recorder) {
    config_.recorder->record(
        log::EventKind::kLeaseAcquire,
        {{"reflector", static_cast<std::int64_t>(index)}});
  }
  return true;
}

void LinkManager::release_lease() {
  if (!holds_lease_) {
    return;
  }
  holds_lease_ = false;
  if (config_.reflector_release) {
    config_.reflector_release(active_reflector_);
  }
  if (config_.recorder) {
    config_.recorder->record(
        log::EventKind::kLeaseRelease,
        {{"reflector", static_cast<std::int64_t>(active_reflector_)}});
  }
}

void LinkManager::revoke_reflector(std::size_t index) {
  if (mode_ == Mode::kHandoverPending && active_reflector_ == index) {
    // The target was handed to an aged-out waiter mid-flight: the commit
    // would program a reflector that is no longer ours. Cancel the attempt;
    // next frame re-runs ordinary target selection.
    simulator_.cancel(commit_event_);
    simulator_.cancel(timeout_event_);
    ++pending_seq_;
    holds_lease_ = false;
    mode_ = Mode::kDirect;
    ++stats_.lease_revocations;
    if (config_.recorder) {
      config_.recorder->record(
          log::EventKind::kLeaseRevoke,
          {{"reflector", static_cast<std::int64_t>(index)}, {"pending", 1}});
    }
    return;
  }
  if (mode_ == Mode::kViaReflector && active_reflector_ == index) {
    leave_reflector();
    holds_lease_ = false;
    mode_ = Mode::kDirect;
    good_probes_ = 0;
    ++stats_.lease_revocations;
    if (config_.recorder) {
      config_.recorder->record(
          log::EventKind::kLeaseRevoke,
          {{"reflector", static_cast<std::int64_t>(index)}, {"pending", 0}});
    }
  }
}

template <class Probe>
auto LinkManager::with_borrowed_beams(Probe probe) {
  auto& ap = scene_.ap().node();
  auto& headset = scene_.headset().node();
  const double ap_steer = ap.array().steering();
  const double headset_facing = headset.orientation();
  const double headset_steer = headset.array().steering();
  const auto result = probe();
  ap.array().steer(ap_steer);
  headset.set_orientation(headset_facing);  // face_toward re-mounts it
  headset.array().steer(headset_steer);
  return result;
}

std::optional<std::size_t> LinkManager::best_usable_reflector() {
  // Strongest illumination among reflectors the health monitor will let us
  // touch (healthy, or quarantined with the backoff expired = probe due).
  std::optional<std::size_t> best;
  double best_snr = -1e9;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (!health_.usable(i, simulator_.now())) {
      continue;
    }
    const double snr = scene_.via_snr(scene_.reflector(i)).snr.value();
    if (snr > best_snr) {
      best_snr = snr;
      best = i;
    }
  }
  return best;
}

rf::Decibels LinkManager::current_true_snr() {
  if (mode_ != Mode::kViaReflector) {
    // kDirect, kDegraded, and kHandoverPending all ride the direct beam:
    // a pending handover has not moved any hardware yet, and degraded mode
    // is best-effort on whatever the direct path still carries.
    scene_.aim_direct();
    return scene_.direct_snr();
  }
  auto& reflector = scene_.reflector(active_reflector_);
  // AP illuminates the reflector; headset listens toward it.
  scene_.aim_via(reflector);
  // Re-aim the reflector's TX beam if the player walked out of it — a BT
  // exchange, so only when the reflector is reachable (the beam goes stale
  // across a partition; the SNR decay is the honest consequence).
  const double tracked = scene_.true_reflector_angle_to_headset(reflector);
  const double current = reflector.front_end().tx_array().steering();
  if (reachable(active_reflector_) &&
      geom::angular_distance(tracked, current) > config_.retarget_threshold) {
    // Applies the steering; its cost is one BT exchange in flight.
    BeamTracker::retarget(scene_, reflector, rng_, config_.tracker);
    ++stats_.retargets;
  }
  return scene_.via_snr(reflector).snr;
}

void LinkManager::enter_degraded() {
  if (mode_ == Mode::kDegraded) {
    return;
  }
  mode_ = Mode::kDegraded;
  ++stats_.degraded_entries;
  good_probes_ = 0;
  if (config_.recorder) {
    config_.recorder->record(log::EventKind::kDegradedEnter, {});
  }
}

void LinkManager::handover_failed(std::size_t target,
                                  const std::string& reason,
                                  std::int64_t reason_code) {
  ++stats_.failed_handovers;
  if (config_.recorder) {
    config_.recorder->record(
        log::EventKind::kHandoverAbort,
        {{"reflector", static_cast<std::int64_t>(target)},
         {"reason", reason_code}});
  }
  release_lease();
  if (health_.quarantined(target)) {
    // This attempt WAS the re-probe; its failure doubles the backoff.
    health_.note_probe_result(target, simulator_.now(), /*good=*/false);
  } else {
    health_.quarantine(target, simulator_.now(), reason);
  }
  // Back to the direct path; the next frame decides whether another
  // reflector is worth trying or the link is plain degraded.
  mode_ = Mode::kDirect;
}

void LinkManager::begin_handover_to_reflector() {
  if (records_.empty()) {
    return;  // nothing to fall back to — and nothing to be degraded FROM
  }
  // Usable candidates, strongest illumination first (ties: lower index).
  // A leased-out target is an explicit denial, not a fault: skip to the
  // next-best reflector, and when every usable one is taken stay in the
  // current mode and retry next frame — the arbiter ages waiting users in
  // the meantime, so starvation resolves deterministically.
  candidate_scratch_.clear();
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (!health_.usable(i, simulator_.now())) {
      continue;
    }
    if (config_.skip_occluded_candidates &&
        via_occluded(scene_.reflector(i))) {
      continue;  // no steering routes around a body in the hop
    }
    candidate_scratch_.emplace_back(
        -scene_.via_snr(scene_.reflector(i)).snr.value(), i);
  }
  if (candidate_scratch_.empty()) {
    enter_degraded();
    return;
  }
  std::sort(candidate_scratch_.begin(), candidate_scratch_.end());
  for (const auto& [neg_snr, index] : candidate_scratch_) {
    if (!acquire_lease(index)) {
      continue;
    }
    mode_ = Mode::kHandoverPending;
    active_reflector_ = index;
    const std::uint64_t seq = ++pending_seq_;
    if (config_.recorder) {
      config_.recorder->record(
          log::EventKind::kHandoverBegin,
          {{"reflector", static_cast<std::int64_t>(index)},
           {"seq", static_cast<std::int64_t>(seq)}});
    }
    commit_event_ = simulator_.after(
        config_.bt_wait, [this, t = index, seq] { commit_handover(t, seq); });
    timeout_event_ =
        simulator_.after(config_.handover_timeout,
                         [this, t = index, seq] { abandon_handover(t, seq); });
    return;
  }
  ++stats_.denied_handovers;
}

void LinkManager::commit_handover(std::size_t target, std::uint64_t seq) {
  if (seq != pending_seq_ || mode_ != Mode::kHandoverPending) {
    return;  // stale: a newer attempt superseded this one
  }
  simulator_.cancel(timeout_event_);
  ++pending_seq_;

  if (!reachable(target)) {
    // The commit exchange never crossed the control link: no reflector
    // register moved. Fail the handover so the target is benched instead
    // of being retried every frame.
    handover_failed(target, "control link unreachable at commit",
                    log::kAbortUnreachable);
    return;
  }

  auto& reflector = scene_.reflector(target);
  if (health_.needs_recalibration(target)) {
    recalibrate(target);
  } else if (reflector.boot_epoch() != records_[target].boot_epoch) {
    // The reflector answered, but as a newborn: its registers are wiped.
    // Quarantine + schedule recalibration; the post-backoff re-probe
    // replays the stored calibration and tries again.
    health_.note_reboot(target, simulator_.now());
    ++stats_.failed_handovers;
    if (config_.recorder) {
      config_.recorder->record(
          log::EventKind::kHandoverAbort,
          {{"reflector", static_cast<std::int64_t>(target)},
           {"reason", log::kAbortReboot}});
    }
    release_lease();
    mode_ = Mode::kDirect;
    return;
  }

  scene_.aim_via(reflector);
  BeamTracker::retarget(scene_, reflector, rng_, config_.tracker);

  const auto via = scene_.via_snr(reflector);
  if (!via.usable || via.snr < config_.min_usable_snr) {
    handover_failed(target, "via-link below usable SNR at commit",
                    log::kAbortLowSnr);
    return;
  }
  if (health_.quarantined(target)) {
    health_.note_probe_result(target, simulator_.now(), /*good=*/true);
  } else {
    health_.note_good(target);
  }
  active_reflector_ = target;
  mode_ = Mode::kViaReflector;
  good_probes_ = 0;
  reflector_since_ = simulator_.now();
  ++stats_.handovers_to_reflector;
  if (config_.recorder) {
    config_.recorder->record(
        log::EventKind::kHandoverCommit,
        {{"reflector", static_cast<std::int64_t>(target)}});
  }
}

void LinkManager::abandon_handover(std::size_t target, std::uint64_t seq) {
  if (seq != pending_seq_ || mode_ != Mode::kHandoverPending) {
    return;
  }
  simulator_.cancel(commit_event_);
  ++pending_seq_;
  handover_failed(target, "handover commit timed out", log::kAbortTimeout);
}

void LinkManager::leave_reflector() {
  stats_.time_on_reflector += simulator_.now() - reflector_since_;
}

void LinkManager::probe_direct_path() {
  // Hypothetical direct-link quality if both ends steered at each other,
  // evaluated without disturbing the live beams.
  const rf::Decibels direct = with_borrowed_beams([this] {
    scene_.aim_direct();
    return scene_.direct_snr();
  });

  if (direct >= scene_.headset().config().recover_threshold) {
    ++good_probes_;
  } else {
    good_probes_ = 0;
  }
  if (good_probes_ >= config_.probes_to_recover) {
    // Switching back is all-electronic: AP and headset re-steer in
    // microseconds; the reflector can stay configured as a hot spare —
    // but in a shared room the lease goes back to the pool.
    if (mode_ == Mode::kViaReflector) {
      leave_reflector();
      ++stats_.handovers_to_direct;
      if (config_.recorder) {
        config_.recorder->record(
            log::EventKind::kRecoverDirect,
            {{"reflector", static_cast<std::int64_t>(active_reflector_)}});
      }
    }
    release_lease();
    mode_ = Mode::kDirect;
    good_probes_ = 0;
  }
}

void LinkManager::degraded_tick() {
  if (simulator_.now() - last_probe_ < config_.probe_interval) {
    return;
  }
  last_probe_ = simulator_.now();
  probe_direct_path();  // may promote straight back to kDirect
  if (mode_ != Mode::kDegraded) {
    return;
  }
  if (best_usable_reflector()) {
    // A quarantine backoff expired (or a new reflector appeared): the
    // handover attempt doubles as the re-probe.
    begin_handover_to_reflector();
  }
}

void LinkManager::note_risk_transitions() {
  // Audit-trail bookkeeping only (no behavioral state): when the merged
  // window has run out, the close record lands before anything else this
  // tick — and an armed speculation disarms first, so the offline pairing
  // invariant holds record-by-record.
  if (config_.recorder == nullptr || !risk_logged_open_) {
    return;
  }
  if (simulator_.now() < risk_until_) {
    return;
  }
  if (spec_logged_armed_) {
    config_.recorder->record(log::EventKind::kSpecDisarm, {});
    spec_logged_armed_ = false;
  }
  config_.recorder->record(log::EventKind::kRiskWindowClose, {});
  risk_logged_open_ = false;
}

void LinkManager::on_risk_window(const LinkRiskWindow& window) {
  note_risk_transitions();
  if (window.confidence < config_.proactive_confidence) {
    return;
  }
  const sim::TimePoint now = simulator_.now();
  if (now >= risk_until_) {
    // A fresh window (no overlap with the current one): new hysteresis
    // count, new proactive budget.
    ++stats_.risk_windows;
    risky_ticks_ = 0;
    proactive_used_ = 0;
  }
  risk_until_ = std::max(risk_until_, window.t_end);
  ++risky_ticks_;
  if (config_.recorder && !risk_logged_open_) {
    config_.recorder->record(
        log::EventKind::kRiskWindowOpen,
        {{"end_us", std::chrono::duration_cast<std::chrono::microseconds>(
                        window.t_end)
                        .count()},
         {"conf_m", static_cast<std::int64_t>(window.confidence * 1000.0)}});
    risk_logged_open_ = true;
  }

  if (mode_ != Mode::kDirect) {
    return;  // already on (or moving to) an alternate path
  }
  if (risky_ticks_ < config_.proactive_ticks_to_act ||
      proactive_used_ >= config_.proactive_budget_per_window) {
    return;
  }
  if (proactive_fired_ &&
      now - last_proactive_ < config_.proactive_cooldown) {
    return;
  }
  ++proactive_used_;
  proactive_fired_ = true;
  last_proactive_ = now;
  ++stats_.proactive_handovers;
  begin_handover_to_reflector();
}

std::optional<rf::Decibels> LinkManager::speculative_alt_snr() {
  const auto alt = speculative_alt_snr_impl();
  if (config_.recorder) {
    if (alt.has_value() && !spec_logged_armed_ && risk_logged_open_) {
      config_.recorder->record(
          log::EventKind::kSpecArm,
          {{"alt_mdb", static_cast<std::int64_t>(alt->value() * 1000.0)}});
      spec_logged_armed_ = true;
    } else if (!alt.has_value() && spec_logged_armed_) {
      config_.recorder->record(log::EventKind::kSpecDisarm, {});
      spec_logged_armed_ = false;
    }
  }
  return alt;
}

std::optional<rf::Decibels> LinkManager::speculative_alt_snr_impl() {
  if (mode_ == Mode::kViaReflector) {
    // Alternate = the direct beam. All-electronic probe.
    return with_borrowed_beams([this] {
      scene_.aim_direct();
      return scene_.direct_snr();
    });
  }
  if (mode_ != Mode::kDirect && mode_ != Mode::kHandoverPending) {
    return std::nullopt;  // degraded: nothing usable to speculate on
  }
  // Alternate = the best usable reflector's relay, with its TX beam as
  // last aimed (hot spare) — only AP and headset steering is borrowed.
  const auto target = best_usable_reflector();
  if (!target) {
    return std::nullopt;
  }
  auto& reflector = scene_.reflector(*target);
  const auto via = with_borrowed_beams([&] {
    scene_.aim_via(reflector);
    return scene_.via_snr(reflector);
  });
  if (!via.usable) {
    return std::nullopt;
  }
  return via.snr;
}

rf::Decibels LinkManager::on_frame() {
  note_risk_transitions();
  const rf::Decibels true_snr = current_true_snr();
  scene_.headset().observe(true_snr, rng_);

  switch (mode_) {
    case Mode::kDirect:
      if (scene_.headset().degraded()) {
        begin_handover_to_reflector();
      }
      break;
    case Mode::kHandoverPending:
      break;  // waiting on the commit or timeout event
    case Mode::kViaReflector: {
      if (health_.quarantined(active_reflector_)) {
        // Benched from outside mid-service (control-plane partition,
        // config divergence): evict immediately rather than waiting for
        // the SNR to degrade through the in-service counters.
        leave_reflector();
        release_lease();
        mode_ = Mode::kDirect;
        begin_handover_to_reflector();  // next reflector, or kDegraded
        break;
      }
      if (true_snr < config_.min_usable_snr) {
        health_.note_bad(active_reflector_, simulator_.now(),
                         "in-service via-SNR below usable");
        if (health_.quarantined(active_reflector_)) {
          leave_reflector();
          release_lease();
          mode_ = Mode::kDirect;
          begin_handover_to_reflector();  // next reflector, or kDegraded
          break;
        }
      } else {
        health_.note_good(active_reflector_);
      }
      if (simulator_.now() - last_probe_ >= config_.probe_interval) {
        last_probe_ = simulator_.now();
        probe_direct_path();
        if (mode_ == Mode::kDirect) {
          break;
        }
      }
      break;
    }
    case Mode::kDegraded:
      degraded_tick();
      break;
  }
  return true_snr;
}

}  // namespace movr::core
