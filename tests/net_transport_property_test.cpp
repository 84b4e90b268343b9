// Property/fuzz suite for the transport data-plane.
//
// Across randomized channel schedules (random MCS, random loss, link-down
// windows, fault-injector windows stacking extra loss, Gilbert–Elliott
// burst loss, static and adaptive FEC) the transport must uphold its two
// contracts:
//   1. packet conservation — delivered + dropped + recovered-as-delivered
//      + in-flight == enqueued, with every term counted by an
//      *independent* component (jitter buffer, queue+ARQ ledgers,
//      structural occupancy, recovery credits);
//   2. display-stream sanity — a frame id is never released twice and
//      releases are strictly increasing.
#include <net/transport.hpp>

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include <sim/burst_channel.hpp>
#include <sim/fault_injector.hpp>
#include <sim/simulator.hpp>

namespace movr::net {
namespace {

using namespace std::chrono_literals;

TransportConfig small_config(std::uint64_t seed) {
  TransportConfig config;
  config.source.fps = 90.0;
  config.source.target_mbps = 2000.0;
  config.source.latency_budget = 10ms;
  config.source.seed = seed * 11 + 1;
  config.seed = seed * 17 + 3;
  return config;
}

struct FuzzOptions {
  bool with_fault_windows{false};
  /// Static FEC protection (k == 0: layer off).
  FecParams fec{};
  /// Adaptive controller instead of static FEC.
  bool adaptive_fec{false};
  /// Gilbert–Elliott chain drives extra loss (forced bad during faults)
  /// instead of the flat fault_extra_loss.
  bool burst_loss{false};
  /// Randomly arm speculative dual-path reception on live-link ticks.
  bool speculative{false};
};

/// Drives `ticks` frames through a transport under a randomized channel,
/// checking the (extended) conservation ledger after every tick. Returns
/// the transport metrics.
TransportMetrics run_fuzz(std::uint64_t seed, int ticks, FuzzOptions opts) {
  sim::Simulator simulator;
  TransportConfig config = small_config(seed);
  config.fec = opts.fec;
  config.adaptive_fec = opts.adaptive_fec;
  Transport transport{simulator, config};
  std::mt19937_64 rng{seed};

  // Fault windows: while one is active the session stacks extra loss, the
  // same wiring vr::Session uses.
  sim::FaultInjector faults{simulator};
  if (opts.with_fault_windows) {
    std::uniform_real_distribution<double> at{0.0, ticks / 90.0};
    for (int i = 0; i < 4; ++i) {
      const double start = at(rng);
      faults.inject("loss-window", sim::from_seconds(start),
                    sim::from_seconds(0.05 + 0.1 * i), [] {});
    }
  }

  sim::BurstChannel::Config burst_config;
  burst_config.seed = seed * 29 + 5;
  sim::BurstChannel burst{burst_config};

  std::uniform_real_distribution<double> u{0.0, 1.0};
  const auto mcs_count =
      static_cast<std::uint64_t>(phy::mcs_table().size());
  const sim::Duration interval = sim::from_seconds(1.0 / 90.0);

  for (int t = 0; t < ticks; ++t) {
    const sim::TimePoint tick_at = interval * t;
    simulator.run_until(tick_at);

    ChannelState channel;
    const double roll = u(rng);
    if (roll < 0.1) {
      channel.mcs = nullptr;  // link down
    } else {
      const auto idx = static_cast<std::size_t>(
          rng() % mcs_count);
      channel.mcs = &phy::mcs_table()[idx];
      // Mostly clean, sometimes brutal.
      channel.packet_loss = roll < 0.3 ? 0.6 * u(rng) : 0.05 * u(rng);
    }
    const bool fault_active = faults.active_count(simulator.now()) > 0;
    channel.stressed = fault_active;
    if (opts.speculative && channel.mcs != nullptr && u(rng) < 0.4) {
      // Alternate beam armed with an independent (sometimes terrible)
      // per-MPDU loss; occasionally the controller also thinks stress is
      // imminent. Every spec copy must resolve within this same tick.
      channel.speculative = true;
      channel.alt_loss = u(rng);
      channel.predicted_stress = u(rng) < 0.3;
    }
    if (opts.burst_loss) {
      burst.step();
      if (fault_active) {
        burst.force_bad();
      }
      channel.extra_loss = burst.loss();
    } else if (fault_active) {
      channel.extra_loss = transport.config().fault_extra_loss;
    }
    transport.on_frame(channel);

    EXPECT_TRUE(transport.ledger_closes())
        << "conservation broke at tick " << t << " (seed " << seed
        << "): enqueued " << transport.packets_enqueued() << " != delivered "
        << transport.packets_delivered() << " + dropped "
        << transport.packets_dropped() << " + recovered "
        << transport.packets_recovered_delivered() << " + spec-dup "
        << transport.packets_speculative_dup() << " + in-flight "
        << transport.packets_in_flight();
    if (!transport.ledger_closes()) {
      break;
    }
  }
  const sim::TimePoint end = interval * ticks;
  simulator.run_until(end);
  transport.finalize();

  const TransportMetrics& metrics = transport.metrics();
  EXPECT_TRUE(metrics.conserved()) << "seed " << seed;

  // Speculation sub-ledger: every alternate-beam copy resolved in the same
  // on_data_done event as its primary, so the buckets close exactly — and
  // stay zero when speculation was never armed.
  EXPECT_EQ(metrics.speculative_enqueued,
            metrics.speculative_dups + metrics.speculative_drops)
      << "seed " << seed;
  EXPECT_LE(metrics.speculative_saves, metrics.speculative_enqueued)
      << "seed " << seed;
  if (!opts.speculative) {
    EXPECT_EQ(metrics.speculative_enqueued, 0u) << "seed " << seed;
  }

  // Frame ledger closes: every emitted frame has exactly one fate.
  EXPECT_EQ(metrics.frames_emitted,
            metrics.frames_on_time + metrics.frames_late +
                metrics.frames_missed + metrics.frames_dropped_queue +
                metrics.frames_dropped_arq + metrics.frames_unresolved)
      << "seed " << seed;

  // Release stream: strictly increasing, no double release.
  const auto& log = transport.jitter().release_log();
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_TRUE(seen.insert(log[i]).second) << "double release of " << log[i];
    if (i > 0) {
      EXPECT_LT(log[i - 1], log[i]) << "out-of-order release";
    }
  }
  EXPECT_EQ(log.size(), metrics.frames_on_time);
  return metrics;
}

TEST(TransportProperty, ConservationAcrossRandomLossSchedules) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    run_fuzz(seed, 180, {});
  }
}

TEST(TransportProperty, ConservationAcrossFaultInjectorSchedules) {
  for (std::uint64_t seed = 21; seed <= 26; ++seed) {
    run_fuzz(seed, 180, {.with_fault_windows = true});
  }
}

TEST(TransportProperty, ConservationWithStaticFecUnderBurstLoss) {
  for (std::uint64_t seed = 41; seed <= 46; ++seed) {
    const TransportMetrics metrics =
        run_fuzz(seed, 180, {.with_fault_windows = true,
                             .fec = FecParams{4, 4},
                             .burst_loss = true});
    EXPECT_GT(metrics.parity_enqueued, 0u) << "seed " << seed;
    // Recovery credits never exceed the receiver's recovery count.
    EXPECT_LE(metrics.packets_recovered_delivered, metrics.packets_recovered)
        << "seed " << seed;
  }
}

TEST(TransportProperty, ConservationWithAdaptiveFecUnderBurstLoss) {
  bool any_recovery = false;
  for (std::uint64_t seed = 61; seed <= 68; ++seed) {
    const TransportMetrics metrics =
        run_fuzz(seed, 180, {.with_fault_windows = true,
                             .adaptive_fec = true,
                             .burst_loss = true});
    any_recovery = any_recovery || metrics.packets_recovered > 0;
  }
  // The fuzz channels are lossy enough that the adaptive layer must have
  // recovered something across the seed sweep, or it never engaged.
  EXPECT_TRUE(any_recovery);
}

TEST(TransportProperty, ConservationWithSpeculativeDualPath) {
  // Random speculation arming on top of lossy + fault schedules: the
  // extended ledger must close at every tick (checked inside run_fuzz) and
  // the spec sub-ledger must close at the end. The sweep must actually
  // exercise both outcomes — redundant copies AND saves — or the fuzz is
  // vacuous.
  std::uint64_t dups = 0;
  std::uint64_t saves = 0;
  for (std::uint64_t seed = 121; seed <= 128; ++seed) {
    const TransportMetrics metrics =
        run_fuzz(seed, 180, {.with_fault_windows = true, .speculative = true});
    EXPECT_GT(metrics.speculative_enqueued, 0u) << "seed " << seed;
    dups += metrics.speculative_dups;
    saves += metrics.speculative_saves;
  }
  EXPECT_GT(dups, 0u);
  EXPECT_GT(saves, 0u);
}

TEST(TransportProperty, ConservationWithSpeculationAndAdaptiveFec) {
  // The full stack at once: burst loss, fault windows, adaptive FEC, and
  // speculative dual-path. Each layer keeps its own sub-ledger; run_fuzz
  // asserts they all close.
  for (std::uint64_t seed = 141; seed <= 146; ++seed) {
    run_fuzz(seed, 180, {.with_fault_windows = true,
                         .adaptive_fec = true,
                         .burst_loss = true,
                         .speculative = true});
  }
}

TEST(TransportProperty, DeterministicWithSpeculation) {
  const FuzzOptions opts{.with_fault_windows = true,
                         .adaptive_fec = true,
                         .burst_loss = true,
                         .speculative = true};
  const TransportMetrics a = run_fuzz(37, 120, opts);
  const TransportMetrics b = run_fuzz(37, 120, opts);
  EXPECT_EQ(a.frames_on_time, b.frames_on_time);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.packets_dropped, b.packets_dropped);
  EXPECT_EQ(a.speculative_enqueued, b.speculative_enqueued);
  EXPECT_EQ(a.speculative_dups, b.speculative_dups);
  EXPECT_EQ(a.speculative_drops, b.speculative_drops);
  EXPECT_EQ(a.speculative_saves, b.speculative_saves);
  EXPECT_EQ(a.p99_ms, b.p99_ms);
}

TEST(TransportProperty, FecKZeroIsBitIdenticalToNoFecLayer) {
  // `fec.k == 0` must be a true pass-through: identical metrics to the
  // default config, coin for coin, across lossy + fault schedules.
  for (std::uint64_t seed = 81; seed <= 84; ++seed) {
    const TransportMetrics off =
        run_fuzz(seed, 150, {.with_fault_windows = true});
    const TransportMetrics zero =
        run_fuzz(seed, 150,
                 {.with_fault_windows = true, .fec = FecParams{0, 6}});
    EXPECT_EQ(off.frames_on_time, zero.frames_on_time) << "seed " << seed;
    EXPECT_EQ(off.packets_delivered, zero.packets_delivered);
    EXPECT_EQ(off.packets_dropped, zero.packets_dropped);
    EXPECT_EQ(off.retransmits, zero.retransmits);
    EXPECT_EQ(off.duplicates, zero.duplicates);
    EXPECT_EQ(off.p99_ms, zero.p99_ms);
    EXPECT_EQ(zero.parity_enqueued, 0u);
    EXPECT_EQ(zero.packets_recovered, 0u);
    EXPECT_EQ(zero.packets_recovered_delivered, 0u);
  }
}

TEST(TransportProperty, CleanChannelDeliversEverythingOnTime) {
  sim::Simulator simulator;
  Transport transport{simulator, small_config(5)};
  const sim::Duration interval = sim::from_seconds(1.0 / 90.0);
  const int ticks = 90;
  for (int t = 0; t < ticks; ++t) {
    simulator.run_until(interval * t);
    ChannelState channel;
    channel.mcs = &phy::mcs_table().back();
    channel.packet_loss = 0.0;
    transport.on_frame(channel);
  }
  simulator.run_until(interval * ticks);
  transport.finalize();
  const TransportMetrics& metrics = transport.metrics();
  EXPECT_EQ(metrics.frames_emitted, static_cast<std::uint64_t>(ticks));
  EXPECT_EQ(metrics.frames_on_time, metrics.frames_emitted);
  EXPECT_EQ(metrics.deadline_misses, 0u);
  EXPECT_EQ(metrics.retransmits, 0u);
  EXPECT_TRUE(metrics.conserved());
  EXPECT_EQ(metrics.packets_in_flight, 0u);
  // 2 Gbps at 90 fps moves in a handful of MPDUs well inside 10 ms.
  EXPECT_GT(metrics.p50_ms, 0.0);
  EXPECT_LT(metrics.p99_ms, 10.0);
}

TEST(TransportProperty, TotalLossDropsOrStrandsEverything) {
  sim::Simulator simulator;
  Transport transport{simulator, small_config(6)};
  const sim::Duration interval = sim::from_seconds(1.0 / 90.0);
  const int ticks = 45;
  for (int t = 0; t < ticks; ++t) {
    simulator.run_until(interval * t);
    ChannelState channel;
    channel.mcs = &phy::mcs_table().front();
    channel.packet_loss = 1.0;
    transport.on_frame(channel);
  }
  simulator.run_until(interval * ticks);
  transport.finalize();
  const TransportMetrics& metrics = transport.metrics();
  EXPECT_EQ(metrics.frames_on_time, 0u);
  EXPECT_EQ(metrics.packets_delivered, 0u);
  EXPECT_GT(metrics.retransmits, 0u);
  EXPECT_GT(metrics.deadline_misses, 0u);
  EXPECT_TRUE(metrics.conserved());
}

TEST(TransportProperty, DeterministicGivenSeeds) {
  const TransportMetrics a = run_fuzz(33, 120, {.with_fault_windows = true});
  const TransportMetrics b = run_fuzz(33, 120, {.with_fault_windows = true});
  EXPECT_EQ(a.frames_on_time, b.frames_on_time);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.packets_dropped, b.packets_dropped);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.duplicates, b.duplicates);
  EXPECT_EQ(a.p99_ms, b.p99_ms);
}

TEST(TransportProperty, DeterministicWithAdaptiveFecAndBurstLoss) {
  const FuzzOptions opts{.with_fault_windows = true,
                         .adaptive_fec = true,
                         .burst_loss = true};
  const TransportMetrics a = run_fuzz(34, 120, opts);
  const TransportMetrics b = run_fuzz(34, 120, opts);
  EXPECT_EQ(a.frames_on_time, b.frames_on_time);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.packets_recovered, b.packets_recovered);
  EXPECT_EQ(a.packets_recovered_delivered, b.packets_recovered_delivered);
  EXPECT_EQ(a.parity_enqueued, b.parity_enqueued);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.p99_ms, b.p99_ms);
}

// --- Session reuse ------------------------------------------------------

/// A deterministic lossy drive for the reset test: the channel schedule
/// depends only on `seed`, so two runs on a clean transport must agree on
/// every counter.
void drive_session(Transport& transport, sim::Simulator& simulator,
                   std::uint64_t seed, int ticks) {
  std::mt19937_64 rng{seed};
  std::uniform_real_distribution<double> u{0.0, 1.0};
  const sim::Duration interval = sim::from_seconds(1.0 / 90.0);
  const sim::TimePoint start = simulator.now();
  for (int t = 0; t < ticks; ++t) {
    simulator.run_until(start + interval * t);
    ChannelState channel;
    channel.mcs = &phy::mcs_table()[rng() % phy::mcs_table().size()];
    channel.packet_loss = 0.4 * u(rng);
    channel.stressed = u(rng) < 0.1;
    transport.on_frame(channel);
  }
  simulator.run_until(start + interval * ticks);
  transport.finalize();
}

TEST(TransportProperty, ResetGivesBitIdenticalBackToBackSessions) {
  sim::Simulator simulator;
  TransportConfig config = small_config(9);
  config.adaptive_fec = true;
  Transport transport{simulator, config};

  drive_session(transport, simulator, 55, 120);
  const TransportMetrics first = transport.metrics();
  EXPECT_TRUE(first.conserved());

  // Same transport, second session: every metric — including the queue
  // high-water marks and RNG-dependent counters — must match the first.
  transport.reset();
  EXPECT_EQ(transport.packets_enqueued(), 0u);
  EXPECT_EQ(transport.outcomes().size(), 0u);
  drive_session(transport, simulator, 55, 120);
  const TransportMetrics second = transport.metrics();

  EXPECT_EQ(first.frames_emitted, second.frames_emitted);
  EXPECT_EQ(first.frames_on_time, second.frames_on_time);
  EXPECT_EQ(first.deadline_misses, second.deadline_misses);
  EXPECT_EQ(first.packets_enqueued, second.packets_enqueued);
  EXPECT_EQ(first.packets_delivered, second.packets_delivered);
  EXPECT_EQ(first.packets_dropped, second.packets_dropped);
  EXPECT_EQ(first.packets_in_flight, second.packets_in_flight);
  EXPECT_EQ(first.packets_recovered, second.packets_recovered);
  EXPECT_EQ(first.packets_recovered_delivered,
            second.packets_recovered_delivered);
  EXPECT_EQ(first.parity_enqueued, second.parity_enqueued);
  EXPECT_EQ(first.retransmits, second.retransmits);
  EXPECT_EQ(first.duplicates, second.duplicates);
  EXPECT_EQ(first.queue_max_depth_frames, second.queue_max_depth_frames);
  EXPECT_EQ(first.queue_max_depth_bytes, second.queue_max_depth_bytes);
  EXPECT_EQ(first.p50_ms, second.p50_ms);
  EXPECT_EQ(first.p99_ms, second.p99_ms);
  EXPECT_TRUE(second.conserved());
}

// --- JitterBuffer fuzz --------------------------------------------------

TEST(TransportProperty, JitterBufferFuzzUnderReorderDuplicationBurstLoss) {
  // The buffer alone, fed FEC-framed frames through a hostile pipe:
  // burst-lossy (Gilbert–Elliott per MPDU), reordering, duplicating.
  // Invariants: per-frame data accounting closes, at most one parity per
  // group counted, recovery never exceeds one per group, releases strictly
  // increasing.
  for (std::uint64_t seed = 101; seed <= 110; ++seed) {
    JitterBuffer buffer;
    std::mt19937_64 rng{seed};
    std::uniform_real_distribution<double> u{0.0, 1.0};
    sim::BurstChannel::Config burst_config;
    burst_config.p_good_bad = 0.05;
    burst_config.p_bad_good = 0.3;
    burst_config.loss_bad = 0.6;
    burst_config.seed = seed + 1000;
    sim::BurstChannel burst{burst_config};

    std::uint64_t expected_data = 0;
    const auto t0 = sim::from_seconds(1.0);
    for (std::uint64_t frame_id = 0; frame_id < 60; ++frame_id) {
      const auto n = static_cast<std::uint32_t>(1 + rng() % 24);
      const auto k = static_cast<std::uint32_t>(rng() % 5);  // 0: no FEC
      const auto depth = static_cast<std::uint32_t>(1 + rng() % 6);
      const std::uint32_t groups =
          FecEncoder::group_count(n, {k, depth});
      expected_data += n;

      // Build the frame's MPDUs (data + parity), then push them through
      // the pipe: drop by burst state, duplicate some, reorder a window.
      std::vector<Packet> wire;
      for (std::uint32_t seq = 0; seq < n + groups; ++seq) {
        Packet p;
        p.frame_id = frame_id;
        p.seq = seq;
        p.frame_packets = n;
        p.payload_bytes = 500;
        p.capture = t0 + frame_id * 11ms;
        p.deadline = p.capture + 10ms;
        p.parity = seq >= n;
        p.fec_groups = groups;
        p.fec_group = p.parity ? seq - n : (groups > 0 ? seq % groups : 0);
        burst.step();
        if (u(rng) < burst.loss()) {
          continue;  // lost on air
        }
        wire.push_back(p);
        if (u(rng) < 0.15) {
          wire.push_back(p);  // duplicated (lost-ack retransmit)
        }
      }
      std::shuffle(wire.begin(), wire.end(), rng);

      std::uint64_t fresh_data = 0;
      std::uint64_t recovered = 0;
      for (const Packet& p : wire) {
        const auto arrival = buffer.on_packet(p, p.capture + 5ms);
        if (arrival.fresh && !p.parity) {
          ++fresh_data;
        }
        if (arrival.recovered.has_value()) {
          ++recovered;
        }
      }
      // Per-frame closure: unique data arrivals + recoveries never exceed
      // the frame's data count; recoveries are bounded by parity groups.
      EXPECT_LE(fresh_data + recovered, n) << "seed " << seed;
      EXPECT_LE(recovered, groups) << "seed " << seed;
      if (fresh_data + recovered == n) {
        EXPECT_TRUE(buffer.is_complete(frame_id)) << "seed " << seed;
      }
      buffer.on_deadline(frame_id);
    }

    // Global accounting: every unique arrival counted once; the release
    // log is strictly increasing with no double release.
    EXPECT_LE(buffer.counters().packets_recovered, expected_data);
    const auto& log = buffer.release_log();
    for (std::size_t i = 1; i < log.size(); ++i) {
      EXPECT_LT(log[i - 1], log[i]);
    }
    EXPECT_EQ(log.size(), buffer.counters().released_on_time);
  }
}

}  // namespace
}  // namespace movr::net
