// Headset-side reassembly and release buffer.
//
// Packets arrive out of order across retransmissions and in duplicate when
// acks are lost; the display wants exactly one copy of each frame, in
// order, at its deadline. This buffer reassembles frames from MPDUs,
// absorbs duplicates, and resolves each frame exactly once at its display
// deadline: complete by then -> released on time; otherwise a deadline
// miss (a later completion is recorded for the latency tail but the frame
// is never released — releasing it would reorder the display stream).
//
// Hard invariants (enforced here, fuzzed in tests/net_transport_property_
// test.cpp): a frame id is never released twice, and released ids are
// strictly increasing.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include <net/frame.hpp>
#include <sim/time.hpp>

namespace movr::net {

class JitterBuffer {
 public:
  struct Counters {
    std::uint64_t packets_received{0};  // unique MPDUs accepted (incl. parity)
    std::uint64_t bytes_received{0};    // payload bytes of unique MPDUs
    std::uint64_t duplicates{0};        // MPDUs already held, discarded
    std::uint64_t parity_received{0};   // unique parity MPDUs accepted
    std::uint64_t packets_recovered{0};  // data MPDUs rebuilt from parity
    std::uint64_t frames_completed{0};
    std::uint64_t released_on_time{0};
    std::uint64_t deadline_misses{0};   // incomplete when the display asked
    std::uint64_t late_completions{0};  // completed after their deadline
  };

  /// Resolution of a frame at its display deadline.
  enum class Deadline {
    kReleasedOnTime,
    kMiss,
    kAlreadyResolved,  // duplicate deadline event; no-op
  };

  /// What one MPDU arrival did to the buffer.
  struct Arrival {
    /// The packet was new; duplicates (including the air copy of a data
    /// MPDU already rebuilt from parity) are dropped on the floor.
    bool fresh{false};
    /// Data seq this arrival let the FEC layer reconstruct, if any. At
    /// most one per arrival: an MPDU only ever completes its own group.
    std::optional<std::uint32_t> recovered{};
  };

  const Counters& counters() const { return counters_; }

  /// Accepts one MPDU (data or parity; see the FEC framing on Packet).
  /// When a group's parity is held and exactly one data member is missing,
  /// that member is reconstructed on the spot and reported in `recovered`.
  Arrival on_packet(const Packet& packet, sim::TimePoint now);

  /// Resolves `frame_id` at its display deadline. Must be called in frame
  /// order (deadlines are monotone in id); an out-of-order release attempt
  /// throws std::logic_error — it would reorder the display stream.
  Deadline on_deadline(std::uint64_t frame_id);

  bool is_complete(std::uint64_t frame_id) const;

  /// Completion latency (completion time - capture), when the frame has
  /// completed (possibly after its deadline).
  std::optional<sim::Duration> completion_latency(std::uint64_t frame_id) const;

  /// Released frame ids in release order — strictly increasing by
  /// construction; exposed so property tests can audit the invariant.
  const std::vector<std::uint64_t>& release_log() const {
    return release_log_;
  }

  /// Back to a freshly constructed state, for reuse across back-to-back
  /// sessions (also resets the release-order watermark). Keeps every
  /// slot's backing storage.
  void reset();

  /// Bytes of backing storage currently owned (slot ring + per-slot
  /// reassembly vectors). The release log, one id per released frame, is a
  /// session record and not counted.
  std::size_t arena_bytes() const;

 private:
  struct FrameState {
    std::uint32_t expected{0};  // data MPDUs (parity not counted)
    std::uint32_t received{0};  // data MPDUs held or reconstructed
    std::vector<bool> have;     // by data seq
    std::uint32_t fec_groups{0};
    std::vector<bool> parity_have;            // by group
    std::vector<std::uint32_t> group_missing;  // data members still absent
    sim::TimePoint capture{};
    std::optional<sim::TimePoint> completed_at;
    bool resolved{false};  // deadline fired
    bool released{false};
  };

  /// Direct-mapped frame slot: frame ids are dense and monotone, so slot
  /// `id % kSlots` holds the id's state and an old occupant is simply
  /// recycled in place (vectors keep their capacity — no allocation).
  /// kSlots spans ~5.7 s at 90 Hz; every query against this buffer
  /// (deadline, straggler arrival, finalize's is_complete sweep) concerns
  /// a frame far younger than that.
  struct Slot {
    std::uint64_t frame_id{0};
    bool occupied{false};
    FrameState state;
  };
  static constexpr std::size_t kSlots = 512;

  /// Resident state for `frame_id`, nullptr when its slot holds another
  /// (always much older) frame or nothing.
  const FrameState* find(std::uint64_t frame_id) const;
  /// Slot for `frame_id`, evicting and recycling any older occupant.
  FrameState& claim(std::uint64_t frame_id);

  void init_frame(FrameState& frame, const Packet& packet);
  std::optional<std::uint32_t> try_recover(FrameState& frame,
                                           std::uint32_t group);
  void check_completed(FrameState& frame, sim::TimePoint now);

  Counters counters_;
  std::vector<Slot> slots_{kSlots};
  std::vector<std::uint64_t> release_log_;
  bool any_released_{false};
  std::uint64_t last_released_{0};
};

}  // namespace movr::net
