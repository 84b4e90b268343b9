// Stop-and-wait-window ARQ with a per-frame retransmission budget.
//
// The link carries one MPDU at a time (mmWave is a single beam, not a
// bundle), but the sender does not idle waiting for acks: up to `window`
// transmissions may be outstanding before it stalls. Losses are decided by
// the caller (the transport rolls the coins from the PHY's PER at the true
// SNR plus any fault-window loss) — the ARQ only encodes the *policy*:
// failed data is retransmitted until the frame's budget runs out, at which
// point the whole frame is abandoned; retransmitting a delivered-but-
// unacked packet produces the duplicate the jitter buffer must absorb.
//
// A frame deadline is ~10 ms and a retransmission costs ~150 us of air, so
// a small finite budget is the right policy: beyond it the frame would miss
// the display anyway and the air is better spent on the next frame.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include <net/frame.hpp>

namespace movr::net {

class Arq {
 public:
  struct Config {
    /// Outstanding (sent, not yet acked) transmissions before the sender
    /// stalls.
    int window{4};
    /// Retransmissions a single frame may consume before it is abandoned.
    int max_retx_per_frame{8};
  };

  struct Counters {
    std::uint64_t transmissions{0};
    std::uint64_t retransmits{0};
    std::uint64_t acked{0};
    std::uint64_t data_losses{0};
    std::uint64_t ack_losses{0};
    std::uint64_t frames_abandoned{0};
    /// Transmissions resolved as lost but deliberately not retried
    /// (expendable MPDUs — parity never consumes retransmit budget).
    std::uint64_t forgone{0};
  };

  /// What the sender should do after a transmission resolves.
  enum class Verdict {
    kAcked,         // done with this packet
    kRetransmit,    // send the same packet again (budget consumed)
    kAbandonFrame,  // budget exhausted: give up on the whole frame
  };

  Arq() : Arq{Config{}} {}
  explicit Arq(Config config) : config_{config} {}

  const Config& config() const { return config_; }
  const Counters& counters() const { return counters_; }

  bool can_send() const { return outstanding_ < config_.window; }
  int outstanding() const { return outstanding_; }

  /// Records a transmission entering the air.
  void start(bool is_retransmit);

  /// Resolves one outstanding transmission. `data_lost`: the MPDU did not
  /// reach the receiver. `ack_lost`: it did, but the ack did not make it
  /// back (the sender cannot tell the two apart; the receiver dedups).
  Verdict resolve(const Packet& packet, bool data_lost, bool ack_lost);

  /// Resolves one outstanding transmission as lost-and-written-off: no
  /// retransmission, no budget charge. Used for expendable MPDUs (parity).
  void forgo();

  /// External abandonment (e.g. the queue shed the frame as stale): no
  /// further retransmissions will be granted for it.
  void abandon_frame(std::uint64_t frame_id);
  bool is_abandoned(std::uint64_t frame_id) const {
    const FrameCtl* ctl = find(frame_id);
    return ctl != nullptr && ctl->abandoned;
  }

  /// Overrides `max_retx_per_frame` for one frame. The redundancy
  /// controller uses this to trade budgets: a FEC-protected frame gets a
  /// shallower ARQ budget because parity already covers the common single
  /// losses. Must be set before the frame's first resolve.
  void set_frame_budget(std::uint64_t frame_id, int budget);

  /// Retransmit budget in force for `frame_id`.
  int frame_budget(std::uint64_t frame_id) const;

  /// Drops per-frame bookkeeping once the frame has fully resolved.
  void forget_frame(std::uint64_t frame_id);

  /// Back to a freshly constructed state (same config), for reuse across
  /// back-to-back sessions. Keeps the frame table's capacity.
  void reset();

  /// Bytes of backing storage currently owned (frame-table capacity).
  std::size_t arena_bytes() const {
    return frames_.capacity() * sizeof(FrameCtl);
  }

 private:
  /// All per-frame bookkeeping in one flat record. Frame ids are dense and
  /// monotone, the working set is a handful of in-flight frames, so a
  /// linear-scanned vector beats three hash tables — and, crucially, never
  /// allocates in steady state (node-based containers allocate per insert).
  struct FrameCtl {
    std::uint64_t frame_id{0};
    int retx_used{0};
    int budget_override{0};
    bool has_override{false};
    bool abandoned{false};
  };

  /// Entries this far behind the newest frame id are dead: every
  /// transmission of a frame resolves within a few frame intervals
  /// (deadline ~1 interval, ack_delay microseconds), so nothing can touch a
  /// frame 64 ids old. Pruning keeps the table O(window), not O(session).
  static constexpr std::uint64_t kPruneWindow = 64;

  const FrameCtl* find(std::uint64_t frame_id) const;
  FrameCtl* find(std::uint64_t frame_id);
  /// Finds or appends the frame's record, advancing the prune frontier.
  FrameCtl& touch(std::uint64_t frame_id);
  void prune();

  Config config_;
  Counters counters_;
  int outstanding_{0};
  std::vector<FrameCtl> frames_;
  std::uint64_t frontier_{0};  // highest frame id seen
};

}  // namespace movr::net
