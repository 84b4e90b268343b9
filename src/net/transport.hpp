// The transport data-plane conductor: encoder -> packetizer -> deadline
// queue -> ARQ -> air -> jitter buffer, all driven off the event queue.
//
// One Transport instance is the full sender+receiver pipeline for a
// session. Each 90 Hz tick the session posts the current channel state
// (the MCS its rate adapter picked and that MCS's packet error rate at the
// true SNR, plus any fault-window loss); the transport emits the next
// frame, packetizes it for that MCS, and keeps the air busy: one MPDU on
// air at a time, acks resolving `ack_delay` later, up to the ARQ window
// outstanding. Every frame's fate is settled by events — a display-
// deadline event releases (or misses) it, loss coins resolve transmissions
// — so transport time interleaves exactly with the rest of the simulation.
//
// The packet ledger is the subsystem's conservation law: every packet that
// enters the TX queue is eventually delivered (counted once by the jitter
// buffer), dropped (queue shed / stale, or ARQ budget), recovered — its
// payload rebuilt from FEC parity before any counted copy arrived — or
// still in flight when the session ends.
// tests/net_transport_property_test.cpp fuzzes this equation across random
// loss, burst and fault schedules.
#pragma once

#include <cstdint>
#include <random>
#include <string_view>
#include <utility>
#include <vector>

#include <net/arq.hpp>
#include <net/fec.hpp>
#include <net/frame.hpp>
#include <net/frame_source.hpp>
#include <net/jitter_buffer.hpp>
#include <net/packetizer.hpp>
#include <net/redundancy_controller.hpp>
#include <net/stats.hpp>
#include <net/tx_queue.hpp>
#include <phy/mcs.hpp>
#include <sim/simulator.hpp>
#include <sim/time.hpp>

namespace movr::net {

/// What the link looks like this frame, as the session's rate control saw
/// it. `packet_loss` is the per-MPDU loss probability at the chosen MCS and
/// the true SNR; `extra_loss` stacks fault-window loss on top.
struct ChannelState {
  const phy::McsEntry* mcs{nullptr};  // nullptr: link down, nothing flies
  double packet_loss{0.0};
  double extra_loss{0.0};
  /// Correlated-loss warning from the control plane (fault window open,
  /// handover pending, degraded mode): the adaptive FEC controller boosts
  /// protection proactively while this is set.
  bool stressed{false};
  /// Forecast-only stress: a high-confidence occlusion risk window is open
  /// but nothing has failed yet. Pre-arms the FEC controller exactly like
  /// `stressed`; unlike `stressed` it never forces the burst channel bad —
  /// a belief is not physics.
  bool predicted_stress{false};
  /// Arm speculative dual-path reception for this tick's data MPDUs: each
  /// gets one extra copy on the alternate beam (direct while riding a
  /// reflector, reflector while direct) with per-MPDU loss `alt_loss`.
  /// Copies are terminally resolved the instant the primary transmission
  /// is (redundant -> speculative-dup bucket, lost -> dropped bucket), so
  /// the extended ledger closes at every instant.
  bool speculative{false};
  double alt_loss{1.0};
  /// Fraction (0, 1] of the AP's airtime this link may use — multi-user
  /// arena plumbing. Serialization slows by 1/share (an MPDU's wall-clock
  /// air occupancy includes the other users' interleaved slots). Exactly
  /// 1.0 (the default) is bit-identical to the single-user transport.
  double airtime_share{1.0};
  /// Mutual-interference SNR penalty (dB) the session already folded into
  /// `packet_loss`; carried for accounting only.
  double interference_db{0.0};

  double loss() const {
    const double p = packet_loss + extra_loss;
    return p < 0.0 ? 0.0 : (p > 1.0 ? 1.0 : p);
  }
};

struct TransportConfig {
  FrameSource::Config source{};
  Packetizer::Config packetizer{};
  TxQueue::Config queue{};
  Arq::Config arq{};
  /// Static FEC protection applied to every frame (net/fec.hpp); k == 0
  /// disables the layer entirely (bit-identical pass-through). Ignored
  /// when `adaptive_fec` is set.
  FecParams fec{};
  /// Let the RedundancyController pick protection per frame from ack
  /// history and the channel's `stressed` signal.
  bool adaptive_fec{false};
  RedundancyController::Config redundancy{};
  /// Ack resolution delay after a data MPDU leaves the air.
  sim::Duration ack_delay{std::chrono::microseconds{5}};
  /// Ack loss probability = `ack_loss_factor` x data loss (acks are short
  /// and robustly modulated, but not immune) — the source of duplicates.
  double ack_loss_factor{0.25};
  /// Loss stacked onto the channel while a fault window is active; the
  /// session reads this when building ChannelState (unless a burst-loss
  /// channel model is driving `extra_loss` instead).
  double fault_extra_loss{0.5};
  std::uint64_t seed{99};
};

class Transport {
 public:
  /// Every emitted frame lands in exactly one terminal kind.
  struct FrameOutcome {
    enum class Kind : std::uint8_t {
      kPending,       // not yet resolved (transient)
      kOnTime,        // released at its display deadline
      kLate,          // completed after its deadline (player saw a glitch)
      kMiss,          // deadline passed, never completed, never dropped
      kDroppedQueue,  // shed by the TX queue (stale or backpressure)
      kDroppedArq,    // retransmission budget exhausted
      kUnresolved,    // session ended before its deadline
    };

    std::uint64_t id{0};
    sim::TimePoint capture{};
    Kind kind{Kind::kPending};
    double latency_ms{TransportMetrics::kNeverMs};
  };

  Transport(sim::Simulator& simulator, TransportConfig config);

  /// One display tick: emit + packetize + enqueue the next frame under
  /// `channel`, then keep the air busy. Call once per frame interval.
  void on_frame(ChannelState channel);

  /// Settles every frame still pending (on time when the jitter buffer
  /// completed it, unresolved otherwise) and builds the metrics. Call once
  /// after the simulator stops.
  void finalize();

  /// Valid after finalize().
  const TransportMetrics& metrics() const { return metrics_; }

  /// Per-frame fates in id order (ids are dense from 0).
  const std::vector<FrameOutcome>& outcomes() const { return outcomes_; }

  // Live ledger (valid at any time; fuzzed by the property tests).
  std::uint64_t packets_enqueued() const;
  std::uint64_t packets_delivered() const;
  std::uint64_t packets_dropped() const;
  std::uint64_t packets_in_flight() const;
  /// Enqueued packets whose payload reached the display via FEC recovery
  /// instead of a counted arrival — the ledger's fourth bucket.
  std::uint64_t packets_recovered_delivered() const {
    return recovered_credited_;
  }
  /// Speculative alternate-beam copies that were redundant at the receiver
  /// (the primary also arrived, or the copy merely duplicated an earlier
  /// recovery) — the ledger's fifth bucket. Zero while speculation is
  /// never armed.
  std::uint64_t packets_speculative_dup() const { return speculative_dups_; }
  /// Display deadlines missed so far (late + dropped + still-in-flight at
  /// deadline), countable mid-run — the arena's admission controller polls
  /// this each window without waiting for finalize().
  std::uint64_t live_deadline_misses() const { return live_deadline_misses_; }
  /// Frames emitted so far (mid-run counterpart of metrics().frames_emitted).
  std::uint64_t live_frames_emitted() const { return outcomes_.size(); }

  /// One consistent read of the live six-term ledger — what the session
  /// event log snapshots every 20 ms.
  struct LedgerSnapshot {
    std::uint64_t enqueued{0};
    std::uint64_t delivered{0};
    std::uint64_t dropped{0};
    std::uint64_t recovered{0};
    std::uint64_t speculative_dup{0};
    std::uint64_t in_flight{0};
    /// enqueued == delivered + dropped + recovered-as-delivered +
    /// speculative-dup + in-flight.
    bool closes() const {
      return enqueued ==
             delivered + dropped + recovered + speculative_dup + in_flight;
    }
  };
  LedgerSnapshot ledger_snapshot() const {
    return {packets_enqueued(),
            packets_delivered(),
            packets_dropped(),
            packets_recovered_delivered(),
            packets_speculative_dup(),
            packets_in_flight()};
  }
  /// The live ledger closes, at any instant (fuzzed every tick by the
  /// property tests and benches).
  bool ledger_closes() const { return ledger_snapshot().closes(); }

  const TxQueue& queue() const { return queue_; }
  const Arq& arq() const { return arq_; }
  const JitterBuffer& jitter() const { return jitter_; }
  const FrameSource& source() const { return source_; }
  const FecEncoder& fec() const { return fec_; }
  const RedundancyController& redundancy() const { return controller_; }
  const TransportConfig& config() const { return config_; }

  /// Back to a freshly constructed state (same config, reseeded RNG
  /// streams), so one Transport can run back-to-back sessions. Only valid
  /// between sessions: the event queue must be drained first (pending
  /// transport events would act on the cleared state). Every pool and
  /// scratch buffer keeps its capacity, so a warmed transport's second
  /// session runs without heap allocation.
  void reset();

  /// Bytes of backing storage the transport and its subsystems currently
  /// own (rings, frame tables, tick-path scratch) — the steady-state arena.
  /// The per-frame session records (outcomes(), the jitter buffer's
  /// release_log(), finalize's latency scratch) are not counted, so the
  /// arena does not grow by an entry per frame. Monotone within a session;
  /// reset() keeps it.
  std::size_t arena_bytes() const;

 private:
  struct RetxEntry {
    Packet packet;
    bool delivered;  // a lost-ack duplicate (already at the receiver)
  };

  void pump();
  void on_data_done(const Packet& packet, double loss, bool counted,
                    bool speculative, double alt_loss);
  void on_ack(const Packet& packet, bool data_lost, bool ack_lost,
              bool counted);
  void on_display_deadline(std::uint64_t frame_id);
  void on_frame_completed(std::uint64_t frame_id);
  void on_recovered(std::uint64_t frame_id, std::uint32_t seq);
  void drop_frame(std::uint64_t frame_id, FrameOutcome::Kind kind);
  sim::Duration data_airtime(const Packet& packet,
                             const phy::McsEntry& mcs) const;
  bool coin(std::mt19937_64& rng, double probability);
  static std::mt19937_64 derive_stream(std::uint64_t seed,
                                       std::string_view name);

  sim::Simulator& simulator_;
  TransportConfig config_;
  FrameSource source_;
  Packetizer packetizer_;
  TxQueue queue_;
  Arq arq_;
  JitterBuffer jitter_;
  FecEncoder fec_;
  RedundancyController controller_;
  /// Dedicated streams (see DESIGN.md §9.1): data-loss coins keep the
  /// legacy seeding; ack and parity coins draw from independent streams so
  /// toggling FEC (or changing the ack model) never perturbs the data-loss
  /// trajectory of a seeded run.
  std::mt19937_64 rng_;
  std::mt19937_64 ack_rng_;
  std::mt19937_64 parity_rng_;
  /// Alternate-beam coins for speculative copies: a further independent
  /// stream, so arming speculation never perturbs the primary data-loss
  /// trajectory of a seeded run.
  std::mt19937_64 spec_rng_;

  ChannelState channel_{};
  bool air_busy_{false};
  /// Retransmit line, FIFO. A flat vector: the line is bounded by the ARQ
  /// window plus the few holes FEC-first briefly parks, so erase-at-front
  /// moves a handful of entries and never allocates (a deque allocates and
  /// frees blocks as it shifts).
  std::vector<RetxEntry> retx_;
  std::size_t retx_undelivered_{0};
  /// Transmissions outstanding (sent, unresolved) whose packet has not yet
  /// reached the receiver.
  std::size_t unacked_undelivered_{0};
  /// Packets denied retransmission while undelivered (ARQ abandonment).
  std::uint64_t arq_packet_drops_{0};
  /// Undelivered packets purged from the retransmit line on abandonment.
  std::uint64_t retx_purge_drops_{0};
  /// Late duplicates of recovered packets whose credit drop_frame already
  /// wrote off — they land in the dropped bucket (dropped wins).
  std::uint64_t late_dup_drops_{0};
  /// Parity MPDUs lost on air and written off (never retransmitted).
  std::uint64_t parity_loss_drops_{0};
  /// Data packets the receiver rebuilt from parity whose ledger credit is
  /// still pending (the physical copy is queued / on air / unresolved).
  /// Keyed by (frame, seq); erased when credited or when the frame drops.
  /// A sorted flat vector: a few entries at most, and unlike a node-based
  /// set it never allocates once warmed.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> recovered_;
  bool recovered_take(std::uint64_t frame_id, std::uint32_t seq);
  /// Recovered packets whose counted copy was consumed — the ledger's
  /// recovered-as-delivered bucket.
  std::uint64_t recovered_credited_{0};
  /// Speculative dual-path copies: enqueued == dups + drops at every
  /// instant (each copy resolves in the same event that sends it).
  std::uint64_t speculative_enqueued_{0};
  std::uint64_t speculative_dups_{0};
  std::uint64_t speculative_loss_drops_{0};
  /// Armed MPDUs that arrived only via the alternate beam.
  std::uint64_t speculative_saves_{0};
  /// Deadlines missed, counted the instant each frame first misses (kMiss
  /// at its deadline event, or a drop while still pending).
  std::uint64_t live_deadline_misses_{0};
  // Arena accounting across the session (see ChannelState::airtime_share).
  double airtime_share_min_{1.0};
  double interference_db_max_{0.0};
  std::uint64_t interfered_ticks_{0};

  std::vector<FrameOutcome> outcomes_;
  TransportMetrics metrics_;

  // Tick-path scratch, reused every call so the steady state never touches
  // the heap. Each is filled and consumed within one event handler; pump()
  // is never re-entered (handlers run to completion on the event queue).
  std::vector<Packet> packet_scratch_;         // on_frame: packetize + FEC
  std::vector<std::uint64_t> shed_scratch_;    // on_frame: queue overflow
  std::vector<std::uint64_t> stale_scratch_;   // pump: head-of-line drops
  std::vector<double> latency_scratch_;        // finalize: percentiles
};

}  // namespace movr::net
