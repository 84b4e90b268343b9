// Per-frame latency accounting and the transport's metric surface.
//
// The dual-beam / mmWave-VR measurement literature evaluates robustness in
// frame-latency CDFs, not mean SNR — so the transport's primary product is
// the per-frame end-to-end latency distribution, plus the counters that
// explain its tail (deadline misses, retransmissions, queue drops).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace movr::net {

/// Fixed-bin histogram of frame latencies in milliseconds.
struct LatencyHistogram {
  double bin_ms{0.5};
  /// bins[i] counts latencies in [i * bin_ms, (i+1) * bin_ms).
  std::vector<std::uint64_t> bins;
  std::uint64_t overflow{0};

  LatencyHistogram() : bins(40, 0) {}

  void add(double ms) {
    const auto idx = static_cast<std::size_t>(ms / bin_ms);
    if (ms < 0.0 || idx >= bins.size()) {
      ++overflow;
    } else {
      ++bins[idx];
    }
  }

  std::uint64_t total() const {
    std::uint64_t n = overflow;
    for (const std::uint64_t b : bins) {
      n += b;
    }
    return n;
  }
};

struct TransportMetrics {
  // Frame ledger: every emitted frame ends in exactly one bucket.
  std::uint64_t frames_emitted{0};
  std::uint64_t frames_on_time{0};       // released at their deadline
  std::uint64_t frames_late{0};          // completed after their deadline
  std::uint64_t frames_dropped_queue{0}; // shed by the TX queue
  std::uint64_t frames_dropped_arq{0};   // retransmission budget exhausted
  std::uint64_t frames_missed{0};        // deadline passed, still in flight
  std::uint64_t frames_unresolved{0};    // session ended mid-flight
  /// Frames the display asked for and did not get: late + dropped.
  std::uint64_t deadline_misses{0};

  // Packet ledger (the conservation invariant).
  std::uint64_t packets_enqueued{0};
  std::uint64_t packets_delivered{0};  // unique arrivals at the jitter buffer
  std::uint64_t bytes_delivered{0};    // payload bytes of those arrivals
  std::uint64_t packets_dropped{0};    // queue sheds + ARQ abandonments
  std::uint64_t packets_in_flight{0};  // queued / on air / awaiting ack
  std::uint64_t retransmits{0};
  std::uint64_t duplicates{0};  // delivered-again copies (lost acks)

  // Speculative dual-path reception (armed during forecast risk windows;
  // all zero otherwise). Each armed data MPDU gets one extra copy on the
  // alternate beam, resolved atomically with the primary transmission.
  std::uint64_t speculative_enqueued{0};  // alternate-beam copies sent
  std::uint64_t speculative_dups{0};      // copies redundant at the receiver
  std::uint64_t speculative_drops{0};     // copies lost on the alternate beam
  /// Armed MPDUs that arrived *only* via the alternate beam — the copies
  /// speculation actually saved from the primary-path burst.
  std::uint64_t speculative_saves{0};

  // FEC layer (net/fec.hpp); all zero while the layer is disabled.
  std::uint64_t parity_enqueued{0};   // parity MPDUs the encoder appended
  std::uint64_t parity_delivered{0};  // unique parity arrivals
  /// Data MPDUs the receiver rebuilt from parity (receiver's view; a
  /// rebuilt MPDU whose frame later dropped stays in the dropped bucket).
  std::uint64_t packets_recovered{0};
  /// Rebuilt MPDUs credited to the ledger's recovered-as-delivered bucket.
  std::uint64_t packets_recovered_delivered{0};
  std::uint64_t fec_frames_protected{0};
  std::uint64_t fec_enables{0};  // adaptive controller hysteresis turn-ons
  double fec_loss_estimate{0.0};  // controller's final loss EWMA
  double fec_burst_estimate_mpdus{0.0};  // controller's final burst estimate

  // Multi-user arena plumbing (ChannelState::airtime_share /
  // ::interference_db); at their defaults when the session ran alone.
  double airtime_share_min{1.0};    // tightest share the coordinator imposed
  double interference_db_max{0.0};  // worst per-tick SNR penalty
  std::uint64_t interfered_ticks{0};  // ticks with a nonzero penalty

  // Queue backpressure.
  std::size_t queue_max_depth_frames{0};
  std::uint64_t queue_max_depth_bytes{0};

  /// Backing storage owned by the transport's pools, rings and scratch
  /// buffers at session end (bytes). Monotone across back-to-back sessions
  /// on one transport: once warmed, the steady-state tick path allocates
  /// nothing, so this is the arena's high-water mark.
  std::size_t arena_high_water_bytes{0};

  /// End-to-end latency of completed frames; frames that never completed
  /// count as +infinity in the percentiles below.
  LatencyHistogram histogram;
  double p50_ms{0.0};
  double p95_ms{0.0};
  double p99_ms{0.0};

  /// delivered + dropped + recovered-as-delivered + speculative-dup +
  /// in-flight == enqueued — the packet ledger closes (the recovered bucket
  /// is empty without FEC, the speculative bucket without risk windows).
  /// `packets_enqueued` / `packets_dropped` already include the speculative
  /// copies sent / lost.
  bool conserved() const {
    return packets_enqueued == packets_delivered + packets_dropped +
                                   packets_recovered_delivered +
                                   speculative_dups + packets_in_flight;
  }

  static constexpr double kNeverMs = std::numeric_limits<double>::infinity();
};

}  // namespace movr::net
