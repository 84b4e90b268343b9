#include <net/transport.hpp>

#include <algorithm>
#include <cmath>

#include <phy/airtime.hpp>
#include <sim/rng.hpp>

namespace movr::net {

namespace {

double percentile_ms(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double idx = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  if (std::isinf(sorted[hi])) {
    // Interpolating toward infinity is infinity unless we are exactly on
    // the finite lower sample.
    return frac == 0.0 ? sorted[lo] : sorted[hi];
  }
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

Transport::Transport(sim::Simulator& simulator, TransportConfig config)
    : simulator_{simulator},
      config_{config},
      source_{config.source},
      packetizer_{config.packetizer},
      queue_{config.queue},
      arq_{config.arq},
      controller_{config.redundancy},
      rng_{config.seed},
      ack_rng_{derive_stream(config.seed, "net.ack")},
      parity_rng_{derive_stream(config.seed, "net.fec")},
      spec_rng_{derive_stream(config.seed, "net.spec")} {}

std::mt19937_64 Transport::derive_stream(std::uint64_t seed,
                                         std::string_view name) {
  return sim::RngRegistry{seed}.stream(name);
}

bool Transport::coin(std::mt19937_64& rng, double probability) {
  if (probability <= 0.0) {
    return false;
  }
  if (probability >= 1.0) {
    return true;
  }
  std::uniform_real_distribution<double> u{0.0, 1.0};
  return u(rng) < probability;
}

sim::Duration Transport::data_airtime(const Packet& packet,
                                      const phy::McsEntry& mcs) const {
  phy::AirtimeConfig airtime;
  airtime.ampdu_bytes = static_cast<double>(packet.payload_bytes);
  // The ack is modelled separately (ack_delay + loss coin), not as airtime.
  airtime.ack_exchange = sim::Duration::zero();
  return phy::ppdu_airtime(mcs, airtime);
}

void Transport::on_frame(ChannelState channel) {
  channel_ = channel;
  if (channel_.airtime_share < airtime_share_min_) {
    airtime_share_min_ = channel_.airtime_share;
  }
  if (channel_.interference_db > 0.0) {
    ++interfered_ticks_;
    if (channel_.interference_db > interference_db_max_) {
      interference_db_max_ = channel_.interference_db;
    }
  }
  const sim::TimePoint now = simulator_.now();

  Frame frame = source_.next(now);
  FrameOutcome outcome;
  outcome.id = frame.id;
  outcome.capture = frame.capture;
  outcomes_.push_back(outcome);
  simulator_.at(frame.deadline,
                [this, id = frame.id] { on_display_deadline(id); });

  // Packetize for the MCS in force; when the link is down, size for the
  // most robust MCS — the queue holds the frame either way.
  const phy::McsEntry& sizing_mcs =
      channel_.mcs != nullptr ? *channel_.mcs : phy::mcs_table().front();
  packetizer_.split_into(frame, sizing_mcs, packet_scratch_);

  FecParams fec = config_.fec;
  if (config_.adaptive_fec) {
    controller_.on_tick(channel_.stressed, channel_.predicted_stress);
    fec = controller_.plan(frame.keyframe);
    arq_.set_frame_budget(frame.id, controller_.retx_budget());
  }
  fec_.protect(packet_scratch_, fec);

  shed_scratch_.clear();
  queue_.push(packet_scratch_, shed_scratch_);
  for (const std::uint64_t id : shed_scratch_) {
    drop_frame(id, FrameOutcome::Kind::kDroppedQueue);
  }
  pump();
}

void Transport::pump() {
  stale_scratch_.clear();
  queue_.drop_stale(simulator_.now(), stale_scratch_);
  for (const std::uint64_t id : stale_scratch_) {
    drop_frame(id, FrameOutcome::Kind::kDroppedQueue);
  }

  if (air_busy_ || channel_.mcs == nullptr || !arq_.can_send()) {
    return;
  }

  Packet packet;
  bool is_retransmit = false;
  bool already_delivered = false;
  bool serve_retx = !retx_.empty();
  if (serve_retx && retx_.front().packet.fec_groups > 0) {
    const Packet* head = queue_.front();
    if (head != nullptr &&
        head->frame_id == retx_.front().packet.frame_id) {
      // FEC-first: the rest of this frame — its parity included — is still
      // queued, and a parity MPDU may repair this hole for free. Hold the
      // retransmit until the frame has flushed; ARQ stays the backstop for
      // holes parity cannot close.
      serve_retx = false;
    }
  }
  if (serve_retx) {
    packet = retx_.front().packet;
    already_delivered = retx_.front().delivered;
    if (!already_delivered) {
      --retx_undelivered_;
    }
    retx_.erase(retx_.begin());
    is_retransmit = true;
  } else if (queue_.front() != nullptr) {
    packet = queue_.pop();
  } else {
    return;
  }

  const bool counted = !already_delivered;
  if (counted) {
    ++unacked_undelivered_;
  }
  arq_.start(is_retransmit);
  air_busy_ = true;
  const double loss = channel_.loss();
  // Speculation is armed per transmission, at send time: only data MPDUs
  // (parity is expendable — a second beam's worth of it is pure waste).
  const bool speculative = channel_.speculative && !packet.parity;
  const double alt_loss = channel_.alt_loss;
  // A fractional airtime share stretches the MPDU's wall-clock occupancy:
  // the other users' interleaved slots sit between our symbols. share ==
  // 1.0 skips the arithmetic entirely so a single-user run stays
  // bit-identical.
  sim::Duration air = data_airtime(packet, *channel_.mcs);
  if (channel_.airtime_share < 1.0) {
    const double share = std::max(channel_.airtime_share, 1e-3);
    air = sim::Duration{static_cast<sim::Duration::rep>(
        std::llround(static_cast<double>(air.count()) / share))};
  }
  simulator_.after(air,
                   [this, packet, loss, counted, speculative, alt_loss] {
                     on_data_done(packet, loss, counted, speculative,
                                  alt_loss);
                   });
}

void Transport::on_data_done(const Packet& packet, double loss, bool counted,
                             bool speculative, double alt_loss) {
  air_busy_ = false;
  // Parity coins come from their own stream so enabling FEC leaves the
  // data-loss trajectory of a seeded run untouched.
  const bool data_lost = coin(packet.parity ? parity_rng_ : rng_, loss);
  if (config_.adaptive_fec) {
    // Raw primary-path outcome: the controller's channel estimate stays
    // honest even when a speculative copy rescues the MPDU.
    controller_.on_transmission(data_lost);
  }
  bool spec_arrived = false;
  if (speculative) {
    // The alternate-beam copy flies and resolves in the same event as the
    // primary (it shares the airtime slot), so it is never in flight and
    // the extended ledger closes at every instant.
    ++speculative_enqueued_;
    spec_arrived = !coin(spec_rng_, alt_loss);
  }
  // The MPDU reached the receiver if either beam carried it.
  const bool effective_lost = data_lost && !spec_arrived;
  bool still_counted = counted;
  if (!effective_lost) {
    if (still_counted) {
      --unacked_undelivered_;
      still_counted = false;
    }
    const JitterBuffer::Arrival arrival =
        jitter_.on_packet(packet, simulator_.now());
    if (counted && !arrival.fresh && !packet.parity) {
      // The air copy of a data MPDU the receiver had already rebuilt from
      // parity: consume the pending recovery credit. A missing credit means
      // drop_frame wrote it off while this copy was on air — the late
      // duplicate lands in the dropped bucket (dropped wins).
      if (recovered_take(packet.frame_id, packet.seq)) {
        ++recovered_credited_;
      } else {
        ++late_dup_drops_;
      }
    }
    if (arrival.recovered.has_value()) {
      on_recovered(packet.frame_id, *arrival.recovered);
    }
    if (jitter_.is_complete(packet.frame_id)) {
      on_frame_completed(packet.frame_id);
    }
    if (speculative) {
      if (spec_arrived) {
        if (!data_lost) {
          // Both beams delivered: the alternate copy is a receiver-side
          // duplicate the jitter buffer dedups by sequence number.
          (void)jitter_.on_packet(packet, simulator_.now());
        } else {
          // Primary burst ate the MPDU; only the speculative copy got
          // through. The arrival above WAS that copy — the redundant one,
          // ledger-wise, is the lost primary's slot it stands in for.
          ++speculative_saves_;
        }
        ++speculative_dups_;
      } else {
        ++speculative_loss_drops_;
      }
    }
  } else if (speculative) {
    ++speculative_loss_drops_;  // both beams lost the MPDU
  }
  // Ack semantics follow the receiver's truth: a speculative arrival is
  // block-acked like any other, so ARQ never re-sends what the alternate
  // beam already delivered.
  const bool ack_lost =
      !effective_lost && coin(ack_rng_, loss * config_.ack_loss_factor);
  simulator_.after(config_.ack_delay,
                   [this, packet, effective_lost, ack_lost, still_counted] {
                     on_ack(packet, effective_lost, ack_lost, still_counted);
                   });
  pump();
}

void Transport::on_recovered(std::uint64_t frame_id, std::uint32_t seq) {
  // The receiver now holds `seq` without a counted arrival. If the
  // sender's copy is waiting in the retransmit line, the next block-ack
  // advertises the recovery and the retransmit is cancelled — the credit
  // is taken immediately. Otherwise remember the debt: it is settled when
  // the copy's transmission resolves (duplicate arrival or block-acked
  // loss) or written off when the frame drops. A frame drop_frame has
  // already written off has no copy left to settle a credit (its copies
  // landed in the dropped bucket), so none is recorded.
  const FrameOutcome::Kind kind = outcomes_[frame_id].kind;
  if (kind == FrameOutcome::Kind::kDroppedQueue ||
      kind == FrameOutcome::Kind::kDroppedArq) {
    return;
  }
  for (auto it = retx_.begin(); it != retx_.end(); ++it) {
    if (it->packet.frame_id == frame_id && it->packet.seq == seq &&
        !it->packet.parity && !it->delivered) {
      --retx_undelivered_;
      ++recovered_credited_;
      retx_.erase(it);
      return;
    }
  }
  const std::pair<std::uint64_t, std::uint32_t> key{frame_id, seq};
  const auto it = std::lower_bound(recovered_.begin(), recovered_.end(), key);
  if (it == recovered_.end() || *it != key) {
    recovered_.insert(it, key);
  }
}

bool Transport::recovered_take(std::uint64_t frame_id, std::uint32_t seq) {
  const std::pair<std::uint64_t, std::uint32_t> key{frame_id, seq};
  const auto it = std::lower_bound(recovered_.begin(), recovered_.end(), key);
  if (it == recovered_.end() || *it != key) {
    return false;
  }
  recovered_.erase(it);
  return true;
}

void Transport::on_ack(const Packet& packet, bool data_lost, bool ack_lost,
                       bool counted) {
  if (packet.parity && (data_lost || ack_lost)) {
    // Parity is expendable: losing one only costs its group the shield,
    // and retransmitting it would burn ARQ budget the data may need. A
    // copy lost on air lands in the dropped bucket; a delivered copy whose
    // ack vanished is already counted and just needs the line cleared.
    if (counted) {
      --unacked_undelivered_;
      ++parity_loss_drops_;
    }
    arq_.forgo();
    pump();
    return;
  }
  if (data_lost && counted && !packet.parity &&
      recovered_take(packet.frame_id, packet.seq)) {
    // The MPDU was lost on air, but the receiver rebuilt it from parity in
    // the meantime and its block-ack advertises the recovery — no
    // retransmission needed; consume the credit instead.
    --unacked_undelivered_;
    ++recovered_credited_;
    arq_.resolve(packet, false, false);
    pump();
    return;
  }
  switch (arq_.resolve(packet, data_lost, ack_lost)) {
    case Arq::Verdict::kAcked:
      break;
    case Arq::Verdict::kRetransmit: {
      RetxEntry entry;
      entry.packet = packet;
      // `counted` is true only while no copy has reached the receiver, so
      // its negation covers both the lost-ack case and a lost re-send of a
      // packet some earlier copy already delivered.
      entry.delivered = !counted;
      if (counted) {
        --unacked_undelivered_;
        ++retx_undelivered_;
      }
      retx_.push_back(entry);
      break;
    }
    case Arq::Verdict::kAbandonFrame:
      if (counted) {
        --unacked_undelivered_;
        ++arq_packet_drops_;
      }
      drop_frame(packet.frame_id, FrameOutcome::Kind::kDroppedArq);
      break;
  }
  pump();
}

void Transport::drop_frame(std::uint64_t frame_id, FrameOutcome::Kind kind) {
  queue_.purge_frame(frame_id);
  for (auto it = retx_.begin(); it != retx_.end();) {
    if (it->packet.frame_id == frame_id) {
      if (!it->delivered) {
        --retx_undelivered_;
        ++retx_purge_drops_;
      }
      it = retx_.erase(it);
    } else {
      ++it;
    }
  }
  arq_.abandon_frame(frame_id);
  // Pending recovery credits for this frame are written off: the physical
  // copies land in the dropped bucket, which wins over recovery.
  recovered_.erase(
      std::lower_bound(recovered_.begin(), recovered_.end(),
                       std::pair<std::uint64_t, std::uint32_t>{frame_id, 0}),
      std::lower_bound(
          recovered_.begin(), recovered_.end(),
          std::pair<std::uint64_t, std::uint32_t>{frame_id + 1, 0}));
  FrameOutcome& outcome = outcomes_[frame_id];
  if (outcome.kind == FrameOutcome::Kind::kPending) {
    // kMiss frames were already counted at their deadline event.
    ++live_deadline_misses_;
  }
  if (outcome.kind == FrameOutcome::Kind::kPending ||
      outcome.kind == FrameOutcome::Kind::kMiss) {
    outcome.kind = kind;
  }
}

void Transport::on_frame_completed(std::uint64_t frame_id) {
  FrameOutcome& outcome = outcomes_[frame_id];
  const auto latency = jitter_.completion_latency(frame_id);
  if (latency.has_value()) {
    outcome.latency_ms = sim::to_milliseconds(*latency);
  }
  if (outcome.kind == FrameOutcome::Kind::kMiss) {
    outcome.kind = FrameOutcome::Kind::kLate;
  }
  arq_.forget_frame(frame_id);
}

void Transport::on_display_deadline(std::uint64_t frame_id) {
  const JitterBuffer::Deadline verdict = jitter_.on_deadline(frame_id);
  FrameOutcome& outcome = outcomes_[frame_id];
  if (verdict == JitterBuffer::Deadline::kReleasedOnTime) {
    outcome.kind = FrameOutcome::Kind::kOnTime;
  } else if (verdict == JitterBuffer::Deadline::kMiss &&
             outcome.kind == FrameOutcome::Kind::kPending) {
    outcome.kind = FrameOutcome::Kind::kMiss;
    ++live_deadline_misses_;
  }
  pump();
}

std::uint64_t Transport::packets_enqueued() const {
  return queue_.counters().packets_enqueued + speculative_enqueued_;
}

std::uint64_t Transport::packets_delivered() const {
  return jitter_.counters().packets_received;
}

std::uint64_t Transport::packets_dropped() const {
  const TxQueue::Counters& q = queue_.counters();
  return q.packets_dropped_stale + q.packets_dropped_full + q.packets_purged +
         arq_packet_drops_ + retx_purge_drops_ + late_dup_drops_ +
         parity_loss_drops_ + speculative_loss_drops_;
}

std::uint64_t Transport::packets_in_flight() const {
  return queue_.depth_packets() + retx_undelivered_ + unacked_undelivered_;
}

void Transport::finalize() {
  metrics_ = TransportMetrics{};
  metrics_.frames_emitted = outcomes_.size();

  std::vector<double>& latencies = latency_scratch_;
  latencies.clear();
  latencies.reserve(outcomes_.size());
  for (FrameOutcome& outcome : outcomes_) {
    if (outcome.kind == FrameOutcome::Kind::kPending) {
      outcome.kind = jitter_.is_complete(outcome.id)
                         ? FrameOutcome::Kind::kOnTime
                         : FrameOutcome::Kind::kUnresolved;
    }
    switch (outcome.kind) {
      case FrameOutcome::Kind::kOnTime:
        ++metrics_.frames_on_time;
        break;
      case FrameOutcome::Kind::kLate:
        ++metrics_.frames_late;
        ++metrics_.deadline_misses;
        break;
      case FrameOutcome::Kind::kMiss:
        ++metrics_.frames_missed;
        ++metrics_.deadline_misses;
        break;
      case FrameOutcome::Kind::kDroppedQueue:
        ++metrics_.frames_dropped_queue;
        ++metrics_.deadline_misses;
        break;
      case FrameOutcome::Kind::kDroppedArq:
        ++metrics_.frames_dropped_arq;
        ++metrics_.deadline_misses;
        break;
      case FrameOutcome::Kind::kUnresolved:
        ++metrics_.frames_unresolved;
        break;
      case FrameOutcome::Kind::kPending:
        break;  // unreachable
    }
    if (std::isfinite(outcome.latency_ms)) {
      metrics_.histogram.add(outcome.latency_ms);
    }
    latencies.push_back(outcome.latency_ms);
  }

  std::sort(latencies.begin(), latencies.end());
  metrics_.p50_ms = percentile_ms(latencies, 0.50);
  metrics_.p95_ms = percentile_ms(latencies, 0.95);
  metrics_.p99_ms = percentile_ms(latencies, 0.99);

  metrics_.packets_enqueued = packets_enqueued();
  metrics_.packets_delivered = packets_delivered();
  metrics_.bytes_delivered = jitter_.counters().bytes_received;
  metrics_.packets_dropped = packets_dropped();
  metrics_.packets_in_flight = packets_in_flight();
  metrics_.retransmits = arq_.counters().retransmits;
  metrics_.duplicates = jitter_.counters().duplicates;
  metrics_.speculative_enqueued = speculative_enqueued_;
  metrics_.speculative_dups = speculative_dups_;
  metrics_.speculative_drops = speculative_loss_drops_;
  metrics_.speculative_saves = speculative_saves_;
  metrics_.queue_max_depth_frames = queue_.counters().max_depth_frames;
  metrics_.queue_max_depth_bytes = queue_.counters().max_depth_bytes;
  metrics_.airtime_share_min = airtime_share_min_;
  metrics_.interference_db_max = interference_db_max_;
  metrics_.interfered_ticks = interfered_ticks_;

  metrics_.parity_enqueued = fec_.counters().parity_packets;
  metrics_.parity_delivered = jitter_.counters().parity_received;
  metrics_.packets_recovered = jitter_.counters().packets_recovered;
  metrics_.packets_recovered_delivered = recovered_credited_;
  metrics_.fec_frames_protected = fec_.counters().frames_protected;
  metrics_.fec_enables = controller_.counters().enables;
  metrics_.fec_loss_estimate = controller_.loss_estimate();
  metrics_.fec_burst_estimate_mpdus =
      config_.adaptive_fec ? controller_.expected_burst_mpdus() : 0.0;
  metrics_.arena_high_water_bytes = arena_bytes();
}

std::size_t Transport::arena_bytes() const {
  return queue_.arena_bytes() + arq_.arena_bytes() + jitter_.arena_bytes() +
         fec_.arena_bytes() + retx_.capacity() * sizeof(RetxEntry) +
         recovered_.capacity() *
             sizeof(std::pair<std::uint64_t, std::uint32_t>) +
         packet_scratch_.capacity() * sizeof(Packet) +
         shed_scratch_.capacity() * sizeof(std::uint64_t) +
         stale_scratch_.capacity() * sizeof(std::uint64_t);
}

void Transport::reset() {
  source_.reset();
  queue_.reset();
  arq_.reset();
  jitter_.reset();
  fec_.reset();
  controller_.reset();
  rng_.seed(config_.seed);
  ack_rng_ = derive_stream(config_.seed, "net.ack");
  parity_rng_ = derive_stream(config_.seed, "net.fec");
  spec_rng_ = derive_stream(config_.seed, "net.spec");
  channel_ = ChannelState{};
  air_busy_ = false;
  retx_.clear();
  retx_undelivered_ = 0;
  unacked_undelivered_ = 0;
  arq_packet_drops_ = 0;
  retx_purge_drops_ = 0;
  late_dup_drops_ = 0;
  parity_loss_drops_ = 0;
  recovered_.clear();
  recovered_credited_ = 0;
  speculative_enqueued_ = 0;
  speculative_dups_ = 0;
  speculative_loss_drops_ = 0;
  speculative_saves_ = 0;
  live_deadline_misses_ = 0;
  airtime_share_min_ = 1.0;
  interference_db_max_ = 0.0;
  interfered_ticks_ = 0;
  outcomes_.clear();
  metrics_ = TransportMetrics{};
}

}  // namespace movr::net
