#include <net/jitter_buffer.hpp>

#include <stdexcept>

namespace movr::net {

const JitterBuffer::FrameState* JitterBuffer::find(
    std::uint64_t frame_id) const {
  const Slot& slot = slots_[frame_id % kSlots];
  return slot.occupied && slot.frame_id == frame_id ? &slot.state : nullptr;
}

JitterBuffer::FrameState& JitterBuffer::claim(std::uint64_t frame_id) {
  Slot& slot = slots_[frame_id % kSlots];
  if (!slot.occupied || slot.frame_id != frame_id) {
    // Recycle the slot in place: clear() keeps each vector's capacity, so
    // a warmed buffer reassembles every new frame without touching the
    // heap.
    FrameState& s = slot.state;
    s.expected = 0;
    s.received = 0;
    s.have.clear();
    s.fec_groups = 0;
    s.parity_have.clear();
    s.group_missing.clear();
    s.capture = sim::TimePoint{};
    s.completed_at.reset();
    s.resolved = false;
    s.released = false;
    slot.frame_id = frame_id;
    slot.occupied = true;
  }
  return slot.state;
}

void JitterBuffer::init_frame(FrameState& frame, const Packet& packet) {
  frame.expected = packet.frame_packets;
  frame.have.assign(packet.frame_packets, false);
  frame.capture = packet.capture;
  frame.fec_groups = packet.fec_groups;
  if (packet.fec_groups > 0) {
    frame.parity_have.assign(packet.fec_groups, false);
    frame.group_missing.assign(packet.fec_groups, 0);
    // Data seq i belongs to group i % fec_groups (round-robin interleave).
    for (std::uint32_t g = 0; g < packet.fec_groups; ++g) {
      if (g < frame.expected) {
        frame.group_missing[g] =
            (frame.expected - g + packet.fec_groups - 1) / packet.fec_groups;
      }
    }
  }
}

std::optional<std::uint32_t> JitterBuffer::try_recover(FrameState& frame,
                                                       std::uint32_t group) {
  if (group >= frame.parity_have.size() || !frame.parity_have[group] ||
      frame.group_missing[group] != 1) {
    return std::nullopt;
  }
  for (std::uint32_t seq = group; seq < frame.expected;
       seq += frame.fec_groups) {
    if (!frame.have[seq]) {
      frame.have[seq] = true;
      ++frame.received;
      frame.group_missing[group] = 0;
      ++counters_.packets_recovered;
      return seq;
    }
  }
  return std::nullopt;
}

void JitterBuffer::check_completed(FrameState& frame, sim::TimePoint now) {
  if (frame.received == frame.expected && !frame.completed_at.has_value()) {
    frame.completed_at = now;
    ++counters_.frames_completed;
    if (frame.resolved) {
      ++counters_.late_completions;
    }
  }
}

JitterBuffer::Arrival JitterBuffer::on_packet(const Packet& packet,
                                              sim::TimePoint now) {
  FrameState& frame = claim(packet.frame_id);
  if (frame.have.empty()) {
    init_frame(frame, packet);
  }

  if (packet.parity) {
    if (packet.fec_group >= frame.parity_have.size() ||
        frame.parity_have[packet.fec_group]) {
      ++counters_.duplicates;
      return Arrival{};
    }
    frame.parity_have[packet.fec_group] = true;
    ++counters_.packets_received;
    ++counters_.parity_received;
    counters_.bytes_received += packet.payload_bytes;
    Arrival arrival{true, try_recover(frame, packet.fec_group)};
    check_completed(frame, now);
    return arrival;
  }

  if (packet.seq >= frame.have.size() || frame.have[packet.seq]) {
    // Already held — a retransmitted duplicate, or the air copy of a data
    // MPDU the FEC layer reconstructed first.
    ++counters_.duplicates;
    return Arrival{};
  }
  frame.have[packet.seq] = true;
  ++frame.received;
  ++counters_.packets_received;
  counters_.bytes_received += packet.payload_bytes;
  Arrival arrival{true, std::nullopt};
  if (frame.fec_groups > 0) {
    const std::uint32_t group = packet.seq % frame.fec_groups;
    --frame.group_missing[group];
    arrival.recovered = try_recover(frame, group);
  }
  check_completed(frame, now);
  return arrival;
}

JitterBuffer::Deadline JitterBuffer::on_deadline(std::uint64_t frame_id) {
  // A frame none of whose packets ever arrived claims an empty state here,
  // exactly like the old map's operator[] — it resolves as a miss.
  FrameState& frame = claim(frame_id);
  if (frame.resolved) {
    return Deadline::kAlreadyResolved;
  }
  frame.resolved = true;
  if (frame.completed_at.has_value()) {
    if (any_released_ && frame_id <= last_released_) {
      throw std::logic_error(
          "JitterBuffer: out-of-order release attempted");
    }
    frame.released = true;
    any_released_ = true;
    last_released_ = frame_id;
    release_log_.push_back(frame_id);
    ++counters_.released_on_time;
    return Deadline::kReleasedOnTime;
  }
  ++counters_.deadline_misses;
  return Deadline::kMiss;
}

bool JitterBuffer::is_complete(std::uint64_t frame_id) const {
  const FrameState* frame = find(frame_id);
  return frame != nullptr && frame->completed_at.has_value();
}

std::optional<sim::Duration> JitterBuffer::completion_latency(
    std::uint64_t frame_id) const {
  const FrameState* frame = find(frame_id);
  if (frame == nullptr || !frame->completed_at.has_value()) {
    return std::nullopt;
  }
  return *frame->completed_at - frame->capture;
}

std::size_t JitterBuffer::arena_bytes() const {
  std::size_t bytes = slots_.capacity() * sizeof(Slot);
  for (const Slot& slot : slots_) {
    bytes += slot.state.have.capacity() / 8 +
             slot.state.parity_have.capacity() / 8 +
             slot.state.group_missing.capacity() * sizeof(std::uint32_t);
  }
  return bytes;
}

void JitterBuffer::reset() {
  counters_ = Counters{};
  for (Slot& slot : slots_) {
    slot.occupied = false;  // state storage is recycled on the next claim
  }
  release_log_.clear();
  any_released_ = false;
  last_released_ = 0;
}

}  // namespace movr::net
