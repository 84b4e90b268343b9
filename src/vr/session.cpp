#include <vr/session.hpp>

#include <algorithm>
#include <utility>

#include <phy/mcs.hpp>
#include <rf/measurement.hpp>

namespace movr::vr {

Session::Session(sim::Simulator& simulator, core::Scene& scene,
                 LinkStrategy& strategy, Motion* motion,
                 const BlockageScript* script, Config config)
    : simulator_{simulator},
      scene_{scene},
      strategy_{strategy},
      motion_{motion},
      script_{script},
      config_{config},
      rate_rng_{config.rate_control_seed} {
  report_.min_snr_db = 1e9;
  if (config_.transport.has_value()) {
    net::TransportConfig transport = *config_.transport;
    transport.source.fps = config_.display.refresh_hz;
    transport.source.latency_budget = config_.display.latency_budget();
    if (transport.source.target_mbps <= 0.0) {
      transport.source.target_mbps = config_.display.required_mbps();
    }
    transport_ = std::make_unique<net::Transport>(simulator_, transport);
    if (config_.burst_loss.has_value()) {
      burst_ = std::make_unique<sim::BurstChannel>(*config_.burst_loss);
    }
  }
  if (config_.snr_penalty_db || config_.mcs_index_limit ||
      config_.airtime_share) {
    arena_.emplace();
  }
}

std::pair<const phy::McsEntry*, double> Session::select_mcs(
    rf::Decibels true_snr) {
  const phy::McsEntry* mcs = nullptr;
  if (strategy_.pin_lowest_rate()) {
    mcs = &phy::mcs_table().front();
  } else if (!config_.realistic_rate_control) {
    mcs = phy::best_mcs(true_snr);
  } else {
    const rf::Decibels estimate =
        rf::estimate_snr(true_snr, /*symbols=*/16, rate_rng_);
    mcs = adapter_.on_estimate(estimate);
  }
  // Admission cap: an overloaded room fences how far up the ladder this
  // user may rate-chase; -1 mutes an evicted user outright.
  if (mcs != nullptr && tick_mcs_limit_ < mcs->index) {
    if (tick_mcs_limit_ < 0) {
      mcs = nullptr;
      if (arena_.has_value()) {
        ++arena_->muted_frames;
      }
    } else {
      const phy::McsEntry* capped = nullptr;
      for (const phy::McsEntry& entry : phy::mcs_table()) {
        if (entry.index <= tick_mcs_limit_) {
          capped = &entry;
        }
      }
      mcs = capped;
      if (arena_.has_value()) {
        ++arena_->mcs_capped_frames;
      }
    }
  }
  const double per =
      mcs != nullptr ? phy::packet_error_rate(*mcs, true_snr) : 1.0;
  return {mcs, per};
}

std::pair<double, bool> Session::rate_frame(rf::Decibels true_snr) {
  if (strategy_.pin_lowest_rate()) {
    // Degraded mode: robustness over throughput. The most robust MCS keeps
    // *something* flowing; the frame still glitches if even that rate is
    // below the display's requirement — that is what "degraded" means.
    const phy::McsEntry& lowest = phy::mcs_table().front();
    const double per = phy::packet_error_rate(lowest, true_snr);
    const double frame_loss = std::min(1.0, per * 20.0);
    std::uniform_real_distribution<double> coin{0.0, 1.0};
    const bool survives = coin(rate_rng_) >= frame_loss;
    return {lowest.rate_mbps,
            survives && lowest.rate_mbps >= config_.display.required_mbps()};
  }
  if (!config_.realistic_rate_control) {
    const double rate = phy::rate_mbps(true_snr);
    return {rate, rate >= config_.display.required_mbps()};
  }
  // Closed loop: the adapter sees a noisy estimate; the chosen MCS then
  // faces the *true* channel. A frame spans many PHY packets, so even a
  // modest packet error rate costs the frame.
  const rf::Decibels estimate =
      rf::estimate_snr(true_snr, /*symbols=*/16, rate_rng_);
  const phy::McsEntry* mcs = adapter_.on_estimate(estimate);
  if (mcs == nullptr) {
    return {0.0, false};
  }
  const double per = phy::packet_error_rate(*mcs, true_snr);
  const double frame_loss = std::min(1.0, per * 20.0);
  std::uniform_real_distribution<double> coin{0.0, 1.0};
  const bool survives = coin(rate_rng_) >= frame_loss;
  return {mcs->rate_mbps,
          survives && mcs->rate_mbps >= config_.display.required_mbps()};
}

void Session::close_stall() {
  if (current_stall_ > 0) {
    ++report_.stall_events;
    const auto stall_time =
        config_.display.frame_interval() *
        static_cast<std::int64_t>(current_stall_);
    report_.longest_stall = std::max(report_.longest_stall, stall_time);
    current_stall_ = 0;
  }
}

void Session::tick() {
  const sim::TimePoint now = simulator_.now();
  const sim::TimePoint session_time = now - start_;

  // 1. The world moves.
  if (motion_ != nullptr) {
    scene_.headset().node().set_position(motion_->position_at(session_time));
  }
  if (script_ != nullptr) {
    script_->apply(scene_.room(), session_time,
                   scene_.headset().node().position(),
                   scene_.ap().node().position());
  }

  // 2. The link strategy reacts and the frame is sent.
  rf::Decibels snr = strategy_.on_frame();

  // Arena hooks, each polled exactly once per tick so a coordinator can
  // account per-tick state. Unset hooks leave the standalone defaults —
  // subtracting 0.0 dB and dividing airtime by 1.0 are bit-exact no-ops.
  double penalty_db = 0.0;
  if (config_.snr_penalty_db) {
    penalty_db = config_.snr_penalty_db();
    snr -= rf::Decibels{penalty_db};
  }
  tick_mcs_limit_ = config_.mcs_index_limit
                        ? config_.mcs_index_limit()
                        : std::numeric_limits<int>::max();
  tick_share_ = config_.airtime_share ? config_.airtime_share() : 1.0;
  if (arena_.has_value()) {
    if (penalty_db > 0.0) {
      ++arena_->interfered_frames;
      arena_->interference_sum_db += penalty_db;
      arena_->interference_max_db =
          std::max(arena_->interference_max_db, penalty_db);
    }
    arena_->min_share = std::min(arena_->min_share, tick_share_);
  }

  if (transport_ != nullptr) {
    // Transport path: the frame enters the data-plane; whether the player
    // saw it is settled by queueing, ARQ and the jitter buffer, and folded
    // into the report post-run (account_transport_outcomes).
    const auto [mcs, per] = select_mcs(snr);
    net::ChannelState channel;
    channel.mcs = mcs;
    channel.packet_loss = per;
    channel.airtime_share = tick_share_;
    channel.interference_db = penalty_db;
    const bool fault_active =
        config_.faults != nullptr && config_.faults->active_count(now) > 0;
    channel.stressed = fault_active || strategy_.link_stressed();
    channel.predicted_stress = strategy_.predicted_stress();
    if (mcs != nullptr) {
      // Speculative dual-path reception: while the strategy offers an
      // alternate beam (forecast risk window open), each data MPDU also
      // flies that beam at its own loss rate. Beliefs arm speculation;
      // only real stress (below) forces the burst channel bad.
      const auto alt = strategy_.speculative_alt_snr();
      if (alt.has_value()) {
        channel.speculative = true;
        channel.alt_loss = phy::packet_error_rate(*mcs, *alt);
      }
    }
    if (burst_ != nullptr) {
      // Burst model: the chain evolves on its own clock, but world events
      // (fault window, handover, degraded link) pin it bad — blockage
      // becomes correlated loss rather than a flat i.i.d. penalty.
      burst_->step();
      if (channel.stressed) {
        burst_->force_bad();
      }
      channel.extra_loss = burst_->loss();
    } else if (fault_active) {
      channel.extra_loss = config_.transport->fault_extra_loss;
    }
    transport_->on_frame(channel);
    ++report_.frames;
    snr_sum_ += snr.value();
    last_mcs_rate_mbps_ = mcs != nullptr ? mcs->rate_mbps : 0.0;
    rate_sum_ += mcs != nullptr ? mcs->rate_mbps : 0.0;
    report_.min_snr_db = std::min(report_.min_snr_db, snr.value());
    if (report_.frames < target_frames_) {
      simulator_.at(now + config_.display.frame_interval(), [this] { tick(); });
    }
    return;
  }

  auto [rate, delivered] = rate_frame(snr);
  if (tick_mcs_limit_ < 0) {
    // Evicted: nothing flies this tick.
    rate = 0.0;
    delivered = false;
    if (arena_.has_value()) {
      ++arena_->muted_frames;
    }
  } else if (tick_share_ < 1.0 &&
             rate * tick_share_ < config_.display.required_mbps()) {
    // The legacy binary model's share analogue: the deliverable fraction
    // of the rate must still clear the display's requirement.
    delivered = false;
  }
  last_mcs_rate_mbps_ = rate;

  // 3. QoE accounting.
  ++report_.frames;
  snr_sum_ += snr.value();
  rate_sum_ += rate;
  report_.min_snr_db = std::min(report_.min_snr_db, snr.value());
  if (config_.faults != nullptr) {
    frame_log_.emplace_back(now, delivered);
  }
  if (delivered) {
    close_stall();
  } else {
    ++report_.glitched_frames;
    ++current_stall_;
  }

  if (report_.frames < target_frames_) {
    simulator_.at(now + config_.display.frame_interval(), [this] { tick(); });
  }
}

QoeReport Session::run() {
  start();
  simulator_.run_until(start_ + config_.duration);
  return finish();
}

void Session::start() {
  start_ = simulator_.now();
  target_frames_ = static_cast<std::uint64_t>(
      config_.duration.count() / config_.display.frame_interval().count());
  simulator_.after(sim::Duration::zero(), [this] { tick(); });
  if (config_.recorder != nullptr && config_.transport.has_value()) {
    simulator_.after(std::chrono::milliseconds{20},
                     [this] { snapshot_tick(); });
  }
}

void Session::record_transport_snapshot(bool final_snapshot) {
  const net::Transport::LedgerSnapshot ledger = transport_->ledger_snapshot();
  config_.recorder->record(
      log::EventKind::kSnapshotTransport,
      {{"enqueued", static_cast<std::int64_t>(ledger.enqueued)},
       {"delivered", static_cast<std::int64_t>(ledger.delivered)},
       {"dropped", static_cast<std::int64_t>(ledger.dropped)},
       {"recovered", static_cast<std::int64_t>(ledger.recovered)},
       {"spec_dup", static_cast<std::int64_t>(ledger.speculative_dup)},
       {"in_flight", static_cast<std::int64_t>(ledger.in_flight)},
       {"final", final_snapshot ? 1 : 0}});
}

void Session::snapshot_tick() {
  if (transport_ == nullptr || simulator_.now() >= end_time()) {
    return;
  }
  record_transport_snapshot(/*final_snapshot=*/false);
  simulator_.after(std::chrono::milliseconds{20}, [this] { snapshot_tick(); });
}

QoeReport Session::finish() {
  if (transport_ != nullptr) {
    transport_->finalize();
    account_transport_outcomes();
    report_.transport = transport_->metrics();
    if (config_.recorder != nullptr) {
      record_transport_snapshot(/*final_snapshot=*/true);
    }
  }
  if (burst_ != nullptr) {
    report_.burst = burst_->counters();
  }
  close_stall();
  if (report_.frames > 0) {
    report_.mean_snr_db = snr_sum_ / static_cast<double>(report_.frames);
    report_.mean_rate_mbps = rate_sum_ / static_cast<double>(report_.frames);
  } else {
    report_.min_snr_db = 0.0;
  }
  if (config_.faults != nullptr) {
    compute_fault_recovery();
  }
  if (config_.control_plane != nullptr) {
    report_.control_plane = config_.control_plane->incidents();
  }
  report_.predictive = strategy_.predictive_stats();
  if (arena_.has_value()) {
    ArenaLinkStats stats;
    stats.interfered_frames = arena_->interfered_frames;
    stats.mean_interference_db =
        report_.frames > 0
            ? arena_->interference_sum_db / static_cast<double>(report_.frames)
            : 0.0;
    stats.max_interference_db = arena_->interference_max_db;
    stats.mcs_capped_frames = arena_->mcs_capped_frames;
    stats.muted_frames = arena_->muted_frames;
    stats.min_airtime_share = arena_->min_share;
    report_.arena = stats;
  }
  return report_;
}

void Session::account_transport_outcomes() {
  using Kind = net::Transport::FrameOutcome::Kind;
  for (const auto& outcome : transport_->outcomes()) {
    // A frame still unresolved at session end is not a glitch the player
    // saw; everything else either released on time or missed the display.
    const bool delivered =
        outcome.kind == Kind::kOnTime || outcome.kind == Kind::kUnresolved;
    if (config_.faults != nullptr) {
      frame_log_.emplace_back(outcome.capture, delivered);
    }
    if (delivered) {
      close_stall();
    } else {
      ++report_.glitched_frames;
      ++current_stall_;
    }
  }
}

void Session::compute_fault_recovery() {
  const sim::TimePoint session_end = start_ + config_.duration;
  for (const auto& fault : config_.faults->timeline()) {
    FaultRecovery recovery;
    recovery.fault = fault.name;
    recovery.start = fault.start;
    recovery.end = fault.end;

    // Glitches attributed to the fault: frames inside its window (pulses
    // get the frame interval as a minimal window).
    const sim::TimePoint window_end =
        fault.end > fault.start ? fault.end
                                : fault.start + config_.display.frame_interval();
    int consecutive_good = 0;
    for (const auto& [at, delivered] : frame_log_) {
      if (at >= fault.start && at < window_end && !delivered) {
        ++recovery.glitched_frames;
      }
      if (at < fault.start || recovery.recovered) {
        continue;
      }
      consecutive_good = delivered ? consecutive_good + 1 : 0;
      if (consecutive_good >= config_.recovery_good_frames) {
        // Recovery is dated to the first frame of the good run.
        const sim::TimePoint recovered_at =
            at - config_.display.frame_interval() *
                     static_cast<std::int64_t>(config_.recovery_good_frames - 1);
        recovery.time_to_recover =
            recovered_at > fault.start ? recovered_at - fault.start
                                       : sim::Duration::zero();
        recovery.recovered = true;
      }
    }
    if (!recovery.recovered) {
      recovery.time_to_recover = session_end - fault.start;
    }
    report_.fault_recovery.push_back(std::move(recovery));
  }
}

}  // namespace movr::vr
