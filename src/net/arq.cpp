#include <net/arq.hpp>

#include <algorithm>

namespace movr::net {

const Arq::FrameCtl* Arq::find(std::uint64_t frame_id) const {
  for (const FrameCtl& ctl : frames_) {
    if (ctl.frame_id == frame_id) {
      return &ctl;
    }
  }
  return nullptr;
}

Arq::FrameCtl* Arq::find(std::uint64_t frame_id) {
  for (FrameCtl& ctl : frames_) {
    if (ctl.frame_id == frame_id) {
      return &ctl;
    }
  }
  return nullptr;
}

void Arq::prune() {
  if (frontier_ < kPruneWindow) {
    return;
  }
  const std::uint64_t horizon = frontier_ - kPruneWindow;
  frames_.erase(std::remove_if(frames_.begin(), frames_.end(),
                               [horizon](const FrameCtl& ctl) {
                                 return ctl.frame_id < horizon;
                               }),
                frames_.end());
}

Arq::FrameCtl& Arq::touch(std::uint64_t frame_id) {
  if (frame_id > frontier_) {
    frontier_ = frame_id;
    prune();
  }
  if (FrameCtl* ctl = find(frame_id)) {
    return *ctl;
  }
  if (frames_.capacity() == frames_.size()) {
    frames_.reserve(frames_.empty() ? 2 * kPruneWindow
                                    : 2 * frames_.capacity());
  }
  frames_.push_back(FrameCtl{});
  frames_.back().frame_id = frame_id;
  return frames_.back();
}

void Arq::start(bool is_retransmit) {
  ++outstanding_;
  ++counters_.transmissions;
  if (is_retransmit) {
    ++counters_.retransmits;
  }
}

Arq::Verdict Arq::resolve(const Packet& packet, bool data_lost,
                          bool ack_lost) {
  --outstanding_;
  if (!data_lost && !ack_lost) {
    ++counters_.acked;
    return Verdict::kAcked;
  }
  if (data_lost) {
    ++counters_.data_losses;
  } else {
    ++counters_.ack_losses;
  }
  FrameCtl& ctl = touch(packet.frame_id);
  if (ctl.abandoned) {
    // The frame is already given up; a delivered-but-unacked straggler
    // still counts as done (the receiver has the bytes).
    return data_lost ? Verdict::kAbandonFrame : Verdict::kAcked;
  }
  if (ctl.retx_used < frame_budget(packet.frame_id)) {
    ++ctl.retx_used;
    return Verdict::kRetransmit;
  }
  if (data_lost) {
    ++counters_.frames_abandoned;
    ctl.abandoned = true;
    return Verdict::kAbandonFrame;
  }
  // Out of budget but the data made it: the sender wrongly books a loss,
  // the receiver happily completes the frame.
  ++counters_.acked;
  return Verdict::kAcked;
}

void Arq::forgo() {
  --outstanding_;
  ++counters_.forgone;
}

void Arq::abandon_frame(std::uint64_t frame_id) {
  touch(frame_id).abandoned = true;
}

void Arq::set_frame_budget(std::uint64_t frame_id, int budget) {
  FrameCtl& ctl = touch(frame_id);
  ctl.has_override = true;
  ctl.budget_override = budget;
}

int Arq::frame_budget(std::uint64_t frame_id) const {
  const FrameCtl* ctl = find(frame_id);
  return ctl != nullptr && ctl->has_override ? ctl->budget_override
                                             : config_.max_retx_per_frame;
}

void Arq::forget_frame(std::uint64_t frame_id) {
  if (FrameCtl* ctl = find(frame_id)) {
    *ctl = frames_.back();
    frames_.pop_back();
  }
}

void Arq::reset() {
  counters_ = Counters{};
  outstanding_ = 0;
  frames_.clear();
  frontier_ = 0;
}

}  // namespace movr::net
