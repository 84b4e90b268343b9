#include <net/arq.hpp>

#include <gtest/gtest.h>

namespace movr::net {
namespace {

Packet make_packet(std::uint64_t frame_id, std::uint32_t seq = 0) {
  Packet p;
  p.frame_id = frame_id;
  p.seq = seq;
  p.frame_packets = 8;
  p.payload_bytes = 1000;
  return p;
}

TEST(Arq, WindowGatesOutstandingTransmissions) {
  Arq::Config config;
  config.window = 2;
  Arq arq{config};
  EXPECT_TRUE(arq.can_send());
  arq.start(false);
  EXPECT_TRUE(arq.can_send());
  arq.start(false);
  EXPECT_FALSE(arq.can_send());
  EXPECT_EQ(arq.resolve(make_packet(0, 0), false, false),
            Arq::Verdict::kAcked);
  EXPECT_TRUE(arq.can_send());
  EXPECT_EQ(arq.outstanding(), 1);
}

TEST(Arq, DataLossRetransmitsUntilBudgetThenAbandons) {
  Arq::Config config;
  config.max_retx_per_frame = 3;
  Arq arq{config};
  const Packet p = make_packet(7);
  for (int i = 0; i < 3; ++i) {
    arq.start(i > 0);
    EXPECT_EQ(arq.resolve(p, true, false), Arq::Verdict::kRetransmit);
  }
  arq.start(true);
  EXPECT_EQ(arq.resolve(p, true, false), Arq::Verdict::kAbandonFrame);
  EXPECT_TRUE(arq.is_abandoned(7));
  EXPECT_EQ(arq.counters().retransmits, 3u);
  EXPECT_EQ(arq.counters().frames_abandoned, 1u);
  EXPECT_EQ(arq.counters().data_losses, 4u);
}

TEST(Arq, AbandonedFrameDeniesFurtherRetransmits) {
  Arq arq;
  arq.abandon_frame(9);
  const Packet p = make_packet(9);
  arq.start(false);
  EXPECT_EQ(arq.resolve(p, true, false), Arq::Verdict::kAbandonFrame);
  // A delivered-but-unacked straggler of the abandoned frame is done.
  arq.start(false);
  EXPECT_EQ(arq.resolve(p, false, true), Arq::Verdict::kAcked);
}

TEST(Arq, LostAckRetransmitsTheDuplicate) {
  Arq arq;
  const Packet p = make_packet(3);
  arq.start(false);
  EXPECT_EQ(arq.resolve(p, false, true), Arq::Verdict::kRetransmit);
  EXPECT_EQ(arq.counters().ack_losses, 1u);
}

TEST(Arq, BudgetExhaustedLostAckCountsAsAcked) {
  Arq::Config config;
  config.max_retx_per_frame = 1;
  Arq arq{config};
  const Packet p = make_packet(4);
  arq.start(false);
  EXPECT_EQ(arq.resolve(p, true, false), Arq::Verdict::kRetransmit);
  arq.start(true);
  // The retransmitted copy makes it, only the ack dies: the receiver has
  // the data, no reason to kill the frame.
  EXPECT_EQ(arq.resolve(p, false, true), Arq::Verdict::kAcked);
  EXPECT_FALSE(arq.is_abandoned(4));
}

TEST(Arq, BudgetIsPerFrame) {
  Arq::Config config;
  config.max_retx_per_frame = 1;
  Arq arq{config};
  const Packet a = make_packet(1);
  const Packet b = make_packet(2);
  arq.start(false);
  EXPECT_EQ(arq.resolve(a, true, false), Arq::Verdict::kRetransmit);
  arq.start(false);
  EXPECT_EQ(arq.resolve(b, true, false), Arq::Verdict::kRetransmit);
  arq.start(true);
  EXPECT_EQ(arq.resolve(a, true, false), Arq::Verdict::kAbandonFrame);
  EXPECT_FALSE(arq.is_abandoned(2));
}

TEST(Arq, ForgetFrameResetsBudget) {
  Arq::Config config;
  config.max_retx_per_frame = 1;
  Arq arq{config};
  const Packet p = make_packet(5);
  arq.start(false);
  EXPECT_EQ(arq.resolve(p, true, false), Arq::Verdict::kRetransmit);
  arq.forget_frame(5);
  arq.start(true);
  EXPECT_EQ(arq.resolve(p, true, false), Arq::Verdict::kRetransmit);
}

}  // namespace
}  // namespace movr::net
