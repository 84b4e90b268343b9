#include <net/jitter_buffer.hpp>

#include <gtest/gtest.h>

namespace movr::net {
namespace {

using namespace std::chrono_literals;

Packet make_packet(std::uint64_t frame_id, std::uint32_t seq,
                   std::uint32_t frame_packets,
                   sim::TimePoint capture = sim::from_seconds(1.0)) {
  Packet p;
  p.frame_id = frame_id;
  p.seq = seq;
  p.frame_packets = frame_packets;
  p.payload_bytes = 1000;
  p.capture = capture;
  p.deadline = capture + std::chrono::milliseconds{10};
  return p;
}

TEST(JitterBuffer, AssemblesOutOfOrderAndReleasesOnTime) {
  JitterBuffer buffer;
  const auto t0 = sim::from_seconds(1.0);
  EXPECT_TRUE(buffer.on_packet(make_packet(0, 2, 3, t0), t0 + 1ms).fresh);
  EXPECT_TRUE(buffer.on_packet(make_packet(0, 0, 3, t0), t0 + 2ms).fresh);
  EXPECT_FALSE(buffer.is_complete(0));
  EXPECT_TRUE(buffer.on_packet(make_packet(0, 1, 3, t0), t0 + 3ms).fresh);
  EXPECT_TRUE(buffer.is_complete(0));
  ASSERT_TRUE(buffer.completion_latency(0).has_value());
  EXPECT_EQ(*buffer.completion_latency(0), sim::Duration{3ms});

  EXPECT_EQ(buffer.on_deadline(0),
            JitterBuffer::Deadline::kReleasedOnTime);
  EXPECT_EQ(buffer.counters().released_on_time, 1u);
  EXPECT_EQ(buffer.release_log(), (std::vector<std::uint64_t>{0}));
}

TEST(JitterBuffer, DuplicatesAreAbsorbedOnce) {
  JitterBuffer buffer;
  const auto t0 = sim::from_seconds(1.0);
  EXPECT_TRUE(buffer.on_packet(make_packet(0, 0, 2, t0), t0 + 1ms).fresh);
  EXPECT_FALSE(buffer.on_packet(make_packet(0, 0, 2, t0), t0 + 2ms).fresh);
  EXPECT_TRUE(buffer.on_packet(make_packet(0, 1, 2, t0), t0 + 3ms).fresh);
  EXPECT_FALSE(buffer.on_packet(make_packet(0, 1, 2, t0), t0 + 4ms).fresh);
  EXPECT_EQ(buffer.counters().duplicates, 2u);
  EXPECT_EQ(buffer.counters().packets_received, 2u);
  EXPECT_TRUE(buffer.is_complete(0));
  // Completion latency dates to the first copy that completed the frame.
  EXPECT_EQ(*buffer.completion_latency(0), sim::Duration{3ms});
}

TEST(JitterBuffer, IncompleteFrameMissesItsDeadline) {
  JitterBuffer buffer;
  const auto t0 = sim::from_seconds(1.0);
  buffer.on_packet(make_packet(0, 0, 2, t0), t0 + 1ms);
  EXPECT_EQ(buffer.on_deadline(0), JitterBuffer::Deadline::kMiss);
  EXPECT_EQ(buffer.counters().deadline_misses, 1u);
  // The straggler arrives afterwards: a late completion, never released.
  buffer.on_packet(make_packet(0, 1, 2, t0), t0 + 15ms);
  EXPECT_TRUE(buffer.is_complete(0));
  EXPECT_EQ(buffer.counters().late_completions, 1u);
  EXPECT_EQ(*buffer.completion_latency(0), sim::Duration{15ms});
  EXPECT_TRUE(buffer.release_log().empty());
}

TEST(JitterBuffer, DeadlineResolvesExactlyOnce) {
  JitterBuffer buffer;
  const auto t0 = sim::from_seconds(1.0);
  buffer.on_packet(make_packet(0, 0, 1, t0), t0 + 1ms);
  EXPECT_EQ(buffer.on_deadline(0),
            JitterBuffer::Deadline::kReleasedOnTime);
  EXPECT_EQ(buffer.on_deadline(0),
            JitterBuffer::Deadline::kAlreadyResolved);
  EXPECT_EQ(buffer.counters().released_on_time, 1u);
}

TEST(JitterBuffer, OutOfOrderReleaseThrows) {
  JitterBuffer buffer;
  const auto t0 = sim::from_seconds(1.0);
  buffer.on_packet(make_packet(2, 0, 1, t0), t0 + 1ms);
  buffer.on_packet(make_packet(1, 0, 1, t0), t0 + 1ms);
  EXPECT_EQ(buffer.on_deadline(2),
            JitterBuffer::Deadline::kReleasedOnTime);
  EXPECT_THROW(buffer.on_deadline(1), std::logic_error);
}

// --- FEC recovery -----------------------------------------------------
// Framing per net/fec.hpp: data seq i is in group i % groups; a parity
// MPDU covers one whole group and rebuilds any single missing member.

Packet make_fec_packet(std::uint64_t frame_id, std::uint32_t seq,
                       std::uint32_t frame_packets, std::uint32_t groups,
                       bool parity = false) {
  Packet p = make_packet(frame_id, seq, frame_packets);
  p.fec_groups = groups;
  p.fec_group = parity ? seq - frame_packets : seq % groups;
  p.parity = parity;
  return p;
}

TEST(JitterBuffer, ParityRecoversSingleMissingGroupMember) {
  JitterBuffer buffer;
  const auto t0 = sim::from_seconds(1.0);
  // 4 data MPDUs in 2 groups: {0, 2} and {1, 3}. Seq 2 never arrives.
  EXPECT_TRUE(buffer.on_packet(make_fec_packet(0, 0, 4, 2), t0 + 1ms).fresh);
  EXPECT_TRUE(buffer.on_packet(make_fec_packet(0, 1, 4, 2), t0 + 2ms).fresh);
  EXPECT_TRUE(buffer.on_packet(make_fec_packet(0, 3, 4, 2), t0 + 3ms).fresh);
  EXPECT_FALSE(buffer.is_complete(0));

  // Parity of group 0 arrives: the lone missing member (seq 2) rebuilds.
  const auto arrival =
      buffer.on_packet(make_fec_packet(0, 4, 4, 2, true), t0 + 4ms);
  EXPECT_TRUE(arrival.fresh);
  ASSERT_TRUE(arrival.recovered.has_value());
  EXPECT_EQ(*arrival.recovered, 2u);
  EXPECT_TRUE(buffer.is_complete(0));
  EXPECT_EQ(buffer.counters().packets_recovered, 1u);
  EXPECT_EQ(buffer.counters().parity_received, 1u);
  EXPECT_EQ(buffer.counters().packets_received, 4u);  // 3 data + 1 parity
  EXPECT_EQ(*buffer.completion_latency(0), sim::Duration{4ms});
}

TEST(JitterBuffer, DataArrivalTriggersRecoveryWhenParityWasFirst) {
  JitterBuffer buffer;
  const auto t0 = sim::from_seconds(1.0);
  // Parity of group 0 (members {0, 2}) arrives before any data.
  EXPECT_FALSE(buffer.on_packet(make_fec_packet(0, 4, 4, 2, true), t0 + 1ms)
                   .recovered.has_value());
  // Seq 0 lands: group 0 is down to one missing member -> seq 2 rebuilds.
  const auto arrival = buffer.on_packet(make_fec_packet(0, 0, 4, 2), t0 + 2ms);
  ASSERT_TRUE(arrival.recovered.has_value());
  EXPECT_EQ(*arrival.recovered, 2u);
  EXPECT_FALSE(buffer.is_complete(0));  // group 1 still empty
}

TEST(JitterBuffer, ParityCannotRecoverTwoMissingMembers) {
  JitterBuffer buffer;
  const auto t0 = sim::from_seconds(1.0);
  // Group 0 of a 6-packet frame has members {0, 2, 4}; two are missing.
  EXPECT_TRUE(buffer.on_packet(make_fec_packet(0, 0, 6, 2), t0 + 1ms).fresh);
  const auto arrival =
      buffer.on_packet(make_fec_packet(0, 6, 6, 2, true), t0 + 2ms);
  EXPECT_TRUE(arrival.fresh);
  EXPECT_FALSE(arrival.recovered.has_value());
  EXPECT_EQ(buffer.counters().packets_recovered, 0u);
}

TEST(JitterBuffer, AirCopyOfRecoveredPacketCountsAsDuplicate) {
  JitterBuffer buffer;
  const auto t0 = sim::from_seconds(1.0);
  // 2 data MPDUs, 1 group; seq 1 rebuilds from parity...
  buffer.on_packet(make_fec_packet(0, 0, 2, 1), t0 + 1ms);
  const auto recovery =
      buffer.on_packet(make_fec_packet(0, 2, 2, 1, true), t0 + 2ms);
  ASSERT_TRUE(recovery.recovered.has_value());
  EXPECT_TRUE(buffer.is_complete(0));
  // ...so its late air copy is absorbed like any other duplicate.
  const auto dup = buffer.on_packet(make_fec_packet(0, 1, 2, 1), t0 + 3ms);
  EXPECT_FALSE(dup.fresh);
  EXPECT_EQ(buffer.counters().duplicates, 1u);
}

TEST(JitterBuffer, DuplicateParityIsAbsorbed) {
  JitterBuffer buffer;
  const auto t0 = sim::from_seconds(1.0);
  EXPECT_TRUE(
      buffer.on_packet(make_fec_packet(0, 2, 2, 1, true), t0 + 1ms).fresh);
  EXPECT_FALSE(
      buffer.on_packet(make_fec_packet(0, 2, 2, 1, true), t0 + 2ms).fresh);
  EXPECT_EQ(buffer.counters().parity_received, 1u);
  EXPECT_EQ(buffer.counters().duplicates, 1u);
}

TEST(JitterBuffer, ResetClearsStateAndReleaseWatermark) {
  JitterBuffer buffer;
  const auto t0 = sim::from_seconds(1.0);
  buffer.on_packet(make_packet(5, 0, 1, t0), t0 + 1ms);
  EXPECT_EQ(buffer.on_deadline(5),
            JitterBuffer::Deadline::kReleasedOnTime);
  buffer.reset();
  EXPECT_EQ(buffer.counters().packets_received, 0u);
  EXPECT_TRUE(buffer.release_log().empty());
  // Frame ids restart below the old watermark without tripping the
  // release-order invariant.
  buffer.on_packet(make_packet(0, 0, 1, t0), t0 + 1ms);
  EXPECT_EQ(buffer.on_deadline(0),
            JitterBuffer::Deadline::kReleasedOnTime);
}

TEST(JitterBuffer, ReleaseLogIsStrictlyIncreasing) {
  JitterBuffer buffer;
  const auto t0 = sim::from_seconds(1.0);
  for (std::uint64_t id = 0; id < 20; id += 2) {
    buffer.on_packet(make_packet(id, 0, 1, t0 + id * 11ms), t0 + id * 11ms);
    EXPECT_EQ(buffer.on_deadline(id),
              JitterBuffer::Deadline::kReleasedOnTime);
  }
  const auto& log = buffer.release_log();
  ASSERT_EQ(log.size(), 10u);
  for (std::size_t i = 1; i < log.size(); ++i) {
    EXPECT_LT(log[i - 1], log[i]);
  }
}

}  // namespace
}  // namespace movr::net
