// Zero-allocation regression tests — the enforcement teeth of DESIGN.md §11.
//
// Strategy: run a full warmup session to grow every pool, ring and scratch
// buffer to its steady-state capacity, then reset() the transport (which
// reseeds the RNG streams, so the second session replays the exact same
// trajectory) and replay with the operator-new counter armed around the
// tick loop. Because the replay is bit-identical, the warmed capacities are
// exactly sufficient — a single allocation is a regression, not noise.
//
// The armed window covers the 90 Hz steady state only: on_frame(), the
// event cascade run_until() drives (air, acks, deadlines, FEC recovery,
// retransmissions), and the batched oracle query path. finalize()/reset()
// are deliberately outside the window — building a metrics histogram
// between sessions may allocate; the per-tick path may not. The same rule
// holds for the per-frame link budget: warmed direct/via SNR reads and the
// arena's SINR penalty at fixed steering.
#include "net_alloc_hook.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include <arena/interference.hpp>
#include <channel/path_batch.hpp>
#include <channel/path_solver.hpp>
#include <core/channel_oracle.hpp>
#include <core/scene.hpp>
#include <geom/angle.hpp>
#include <net/transport.hpp>
#include <phy/mcs.hpp>
#include <sim/event_queue.hpp>
#include <sim/simulator.hpp>

namespace movr::net {
namespace {

using namespace std::chrono_literals;

constexpr int kTicks = 200;

TEST(NetAllocRegression, HookCountsAllocations) {
  // Self-test: the interposer must actually be the binary's operator new
  // (also under ASan, whose malloc sits underneath it) — otherwise every
  // zero-allocation assertion below would pass vacuously.
  // (A paired new/delete in one function may legally be elided by the
  // optimizer; the vector's heap buffer cannot be.)
  testing::alloc_counter_start();
  std::vector<int>* v = new std::vector<int>(64);
  const std::uint64_t allocs = testing::alloc_counter_stop();
  delete v;
  EXPECT_GE(allocs, 1u) << "operator-new hook is not interposing";
}

TEST(NetAllocRegression, WarmedEventQueueCycleIsHeapFree) {
  // The first cycle grows the key heap, the handler slots and the free
  // list; an identical second cycle reuses them. The cycle schedules equal
  // timestamps, cancels pending ids (one twice) and lets handlers schedule
  // follow-ups and cancel their own, already fired ids.
  sim::EventQueue queue;
  int fired = 0;
  const auto cycle = [&] {
    sim::EventQueue::EventId ids[64];
    for (int i = 0; i < 64; ++i) {
      ids[i] = queue.schedule(sim::TimePoint{i % 8}, [&, i] {
        ++fired;
        if (i % 8 == 1) {
          queue.cancel(ids[i]);
          queue.schedule(sim::TimePoint{9}, [&fired] { ++fired; });
        }
      });
    }
    for (int i = 0; i < 64; i += 4) {
      queue.cancel(ids[i]);
    }
    queue.cancel(ids[4]);
    while (!queue.empty()) {
      queue.run_next();
    }
  };
  cycle();
  ASSERT_EQ(fired, 56);

  testing::alloc_counter_start();
  cycle();
  const std::uint64_t allocs = testing::alloc_counter_stop();
  EXPECT_EQ(allocs, 0u) << "a warmed event-queue cycle touched the heap "
                        << allocs << " time(s)";
  EXPECT_EQ(fired, 112);
}

TransportConfig steady_config() {
  TransportConfig config;
  config.source.fps = 90.0;
  config.source.target_mbps = 2000.0;
  config.source.latency_budget = 10ms;
  config.source.seed = 12;
  config.seed = 34;
  // Static FEC so the parity, recovery and retransmission machinery all run
  // inside the measured window.
  config.fec.k = 4;
  config.fec.depth = 2;
  return config;
}

/// Drives one session of `ticks` frames under a fixed lossy channel.
/// Deterministic by construction: the channel schedule is constant and the
/// transport's RNG streams are reseeded by reset(), so every session of the
/// same length is an exact replay of the first.
void run_session(sim::Simulator& simulator, Transport& transport,
                 sim::TimePoint base, int ticks = kTicks) {
  const sim::Duration interval = sim::from_seconds(1.0 / 90.0);
  ChannelState channel;
  channel.mcs = &phy::mcs_table()[phy::mcs_table().size() / 2];
  channel.packet_loss = 0.12;
  for (int t = 0; t < ticks; ++t) {
    simulator.run_until(base + interval * t);
    transport.on_frame(channel);
  }
}

TEST(NetAllocRegression, SteadyStateTransportTickIsHeapFree) {
  sim::Simulator simulator;
  Transport transport{simulator, steady_config()};

  // Session 1: warm every pool to steady-state capacity, then drain the
  // event queue (reset() requires it) and rewind to a fresh session.
  run_session(simulator, transport, sim::TimePoint{});
  simulator.run();
  ASSERT_EQ(simulator.pending_events(), 0u);
  transport.finalize();
  ASSERT_TRUE(transport.metrics().conserved());
  const std::size_t warmed_arena = transport.arena_bytes();
  transport.reset();

  // Session 2: exact replay with the allocation counter armed. No EXPECTs
  // inside the window — gtest assertions allocate.
  const sim::TimePoint base = simulator.now();
  testing::alloc_counter_start();
  run_session(simulator, transport, base);
  const std::uint64_t allocs = testing::alloc_counter_stop();
  EXPECT_EQ(allocs, 0u)
      << "steady-state transport ticks touched the heap " << allocs
      << " time(s); some pool or scratch buffer lost its capacity";

  // The replay fits the warmed arena exactly — no pool grew.
  simulator.run();
  transport.finalize();
  EXPECT_TRUE(transport.metrics().conserved());
  EXPECT_EQ(transport.arena_bytes(), warmed_arena)
      << "replayed session grew a pool that session 1 should have warmed";
  EXPECT_EQ(transport.metrics().arena_high_water_bytes, warmed_arena);
}

/// The transport arena after a session of `ticks` frames, then after a
/// session four times as long that follows it on the same transport.
struct ArenaGrowth {
  std::size_t first{0};
  std::size_t longer{0};
};

ArenaGrowth arena_growth(int ticks) {
  sim::Simulator simulator;
  Transport transport{simulator, steady_config()};
  const auto session = [&](int session_ticks) {
    transport.reset();  // keeps every capacity
    run_session(simulator, transport, simulator.now(), session_ticks);
    simulator.run();
    transport.finalize();
    EXPECT_TRUE(transport.metrics().conserved());
    EXPECT_EQ(transport.metrics().arena_high_water_bytes,
              transport.arena_bytes());
    return transport.arena_bytes();
  };
  const std::size_t first = session(ticks);
  return {first, session(4 * ticks)};
}

TEST(NetAllocRegression, ArenaCountsNoPerFrameRecords) {
  // The arena counts pools and scratch, not the session's per-frame
  // records (a 32 B frame outcome, an 8 B release-log id, an 8 B latency
  // at finalize). A session four times as long as the warm-up still
  // grows it a little, because every pool keeps its high-water capacity
  // and a longer session meets higher marks (each jitter-buffer slot keeps
  // the vectors of the largest frame it has held). Here that is 1.6 B per
  // added frame; the bound is half of the smallest record. The warm-up
  // passes over the 512-slot ring four times.
  constexpr int kWarmTicks = 2048;
  const ArenaGrowth arena = arena_growth(kWarmTicks);
  ASSERT_GE(arena.longer, arena.first);
  constexpr std::size_t kAddedFrames = 3 * kWarmTicks;
  EXPECT_LT(arena.longer - arena.first, kAddedFrames * 4)
      << "warmed arena " << arena.first << " B grew to " << arena.longer
      << " B over " << kAddedFrames << " more frames";
}

TEST(NetAllocRegression, WrittenOffFramesKeepNoRecoveryCredits) {
  // A recovery credit waits for the sender's copy of a packet the receiver
  // rebuilt from parity. Once drop_frame has written a frame off, no copy
  // is left to settle one, so a packet of that frame rebuilt later must
  // not record a credit: those were never settled or written off, and
  // grew the transport arena with the session's length (about 7 KB from
  // the first session to the second here). What is left of the growth is
  // jitter-buffer slots meeting larger frames, about 1 KB.
  constexpr int kFirstTicks = 8192;
  const ArenaGrowth arena = arena_growth(kFirstTicks);
  ASSERT_GE(arena.longer, arena.first);
  EXPECT_LT(arena.longer - arena.first, 4096u)
      << "the arena grew from " << arena.first << " B to " << arena.longer
      << " B between sessions of " << kFirstTicks << " and "
      << 4 * kFirstTicks << " frames";
}

TEST(NetAllocRegression, WarmedOracleQueryBatchIsHeapFree) {
  const channel::Room room = channel::Room::paper_office();
  const core::ChannelOracle oracle{room};

  channel::EndpointBatch batch;
  const geom::Vec2 ap{0.5, 0.5};
  for (double y = 0.4; y < room.depth() - 0.4; y += 0.5) {
    for (double x = 0.4; x < room.width() - 0.4; x += 0.5) {
      batch.push(ap, {x, y});
    }
  }
  ASSERT_GT(batch.size(), 50u);

  // Cold call: fills the cache and sizes every scratch vector.
  std::vector<core::ChannelOracle::PathsView> views;
  oracle.query_batch(batch, views);
  const auto cold = oracle.stats();
  ASSERT_EQ(cold.misses, batch.size());

  // Warm call over the same endpoints: pure cache hits through borrowed
  // views — must not allocate.
  testing::alloc_counter_start();
  oracle.query_batch(batch, views);
  const std::uint64_t allocs = testing::alloc_counter_stop();
  EXPECT_EQ(allocs, 0u) << "warmed query_batch touched the heap " << allocs
                        << " time(s)";
  const auto warm = oracle.stats();
  EXPECT_EQ(warm.hits, cold.hits + batch.size());
  EXPECT_EQ(warm.misses, cold.misses);
}

TEST(NetAllocRegression, WarmedSolveBatchIsHeapFree) {
  // The batch kernel itself (no cache in front): once the output batch and
  // workspace are warmed, re-solving the same endpoints is allocation-free.
  const channel::Room room = channel::Room::paper_office();
  const channel::PathSolver solver{room};

  channel::EndpointBatch endpoints;
  for (int i = 0; i < 64; ++i) {
    endpoints.push({0.3 + 0.09 * i, 0.6}, {6.5, 4.2});
  }
  channel::PathBatch batch;
  channel::PathSolver::BatchWorkspace ws;
  solver.solve_batch(endpoints, batch, ws);

  testing::alloc_counter_start();
  solver.solve_batch(endpoints, batch, ws);
  const std::uint64_t allocs = testing::alloc_counter_stop();
  EXPECT_EQ(allocs, 0u) << "warmed solve_batch touched the heap " << allocs
                        << " time(s)";
  EXPECT_EQ(batch.queries(), endpoints.size());
}

TEST(NetAllocRegression, RecycledBatchSlotsAreHeapFree) {
  // A warmed batch refilled from *different* endpoints of the same count:
  // half LOS-only answers (a 2 mm hop, every reflection beyond the 60 dB
  // dynamic range), half with two-bounce paths — so a slot that held a
  // two-vertex path can now take a four-vertex one. Every slot reserved
  // four vertices when it was made, so the refill never reallocates.
  const channel::Room room = channel::Room::paper_office();
  const channel::PathSolver solver{room};
  channel::EndpointBatch warm;
  channel::EndpointBatch mixed;
  for (int i = 0; i < 32; ++i) {
    const geom::Vec2 cell{0.6 + 0.12 * i, 1.0 + 0.1 * i};
    warm.push({0.4, 0.4}, cell);
    if (i % 2 == 0) {
      const geom::Vec2 a{2.2 + 0.02 * i, 2.5};
      mixed.push(a, a + geom::Vec2{0.002, 0.0});
    } else {
      mixed.push({4.6, 0.4}, cell);
    }
  }

  channel::PathBatch batch;
  channel::PathSolver::BatchWorkspace ws;
  solver.solve_batch(warm, batch, ws);
  std::vector<std::size_t> warm_vertices;
  for (std::size_t q = 0; q < batch.queries(); ++q) {
    for (const channel::Path& path : batch.query(q)) {
      warm_vertices.push_back(path.vertices.size());
    }
  }

  testing::alloc_counter_start();
  solver.solve_batch(mixed, batch, ws);
  const std::uint64_t allocs = testing::alloc_counter_stop();
  EXPECT_EQ(allocs, 0u) << "recycled solve_batch touched the heap " << allocs
                        << " time(s)";

  // The refill really reused slots with more vertices than they held.
  ASSERT_LE(batch.paths(), warm_vertices.size());
  std::size_t slot = 0;
  bool grew = false;
  for (std::size_t q = 0; q < batch.queries(); ++q) {
    const auto paths = batch.query(q);
    if (q % 2 == 0) {
      EXPECT_EQ(paths.size(), 1u) << "query " << q << " is not LOS-only";
    }
    for (const channel::Path& path : paths) {
      grew |= path.vertices.size() > warm_vertices[slot++];
    }
  }
  EXPECT_TRUE(grew);

  // The oracle's miss batch recycles the same slots: past its warmed
  // scratch, a cold query_batch allocates only the cache entries — per
  // miss, one shared block, one path array and one vertex array per path.
  const core::ChannelOracle oracle{room};
  std::vector<core::ChannelOracle::PathsView> views;
  oracle.query_batch(warm, views);
  testing::alloc_counter_start();
  oracle.query_batch(mixed, views);
  const std::uint64_t oracle_allocs = testing::alloc_counter_stop();
  std::uint64_t cache_allocs = 0;
  for (std::size_t q = 0; q < mixed.size(); ++q) {
    ASSERT_NE(views[q], nullptr);
    EXPECT_EQ(views[q]->size(), batch.query(q).size());
    cache_allocs += 2 + views[q]->size();
  }
  EXPECT_EQ(oracle.stats().misses, warm.size() + mixed.size());
  EXPECT_EQ(oracle_allocs, cache_allocs)
      << "query_batch allocated beyond its cache entries";
}

/// An 8x8 m room with one reflector per wall midpoint; the AP sits in a
/// corner and both beams point at the user's headset.
core::Scene corner_user(geom::Vec2 ap, geom::Vec2 user) {
  core::Scene scene{channel::Room{8.0, 8.0},
                    core::ApRadio{ap, (user - ap).heading()},
                    core::HeadsetRadio{user, 0.0}};
  scene.add_reflector({4.0, 7.7}, geom::deg_to_rad(265.0));
  scene.add_reflector({7.7, 4.0}, geom::deg_to_rad(175.0));
  scene.add_reflector({0.3, 4.0}, geom::deg_to_rad(355.0));
  scene.add_reflector({4.0, 0.3}, geom::deg_to_rad(85.0));
  scene.ap().node().steer_toward(user);
  scene.headset().node().face_toward(ap);
  return scene;
}

/// Aims reflector `r` from the AP to the headset at a mid gain code and
/// points the AP at it.
void ride_reflector(core::Scene& scene, std::size_t r) {
  core::MovrReflector& reflector = scene.reflector(r);
  reflector.front_end().steer_rx(scene.true_reflector_angle_to_ap(reflector));
  reflector.front_end().steer_tx(
      scene.true_reflector_angle_to_headset(reflector));
  reflector.front_end().set_gain_code(200);
  scene.ap().node().steer_toward(reflector.position());
}

TEST(NetAllocRegression, WarmedLinkBudgetIsHeapFree) {
  // At fixed steering, once the oracle holds every hop and the per-thread
  // path scratch has grown, a link-budget read is pure math: no component
  // vector per path_power call and no arrays built for the loop isolation.
  core::Scene direct = corner_user({0.4, 0.4}, {3.1, 2.2});
  core::Scene via = corner_user({0.4, 0.4}, {3.1, 2.2});
  ride_reflector(via, 1);
  const core::MovrReflector& reflector = via.reflector(1);
  double sink =
      direct.direct_snr().value() + via.via_snr(reflector).snr.value();

  testing::alloc_counter_start();
  for (int i = 0; i < 16; ++i) {
    sink += direct.direct_snr().value();
    sink += via.via_snr(reflector).snr.value();
  }
  const std::uint64_t allocs = testing::alloc_counter_stop();
  EXPECT_EQ(allocs, 0u) << "warmed direct_snr/via_snr touched the heap "
                        << allocs << " time(s)";
  EXPECT_TRUE(std::isfinite(sink));
}

TEST(NetAllocRegression, WarmedSinrPenaltyIsHeapFree) {
  // Eight users on the four corner APs, one riding a reflector: the
  // victim-side scratch of interference_at_headset keeps its capacity, so a
  // warmed penalty at fixed steering does not allocate.
  const geom::Vec2 corners[4] = {
      {0.4, 0.4}, {7.6, 0.4}, {7.6, 7.6}, {0.4, 7.6}};
  std::vector<core::Scene> scenes;
  scenes.reserve(8);
  for (std::size_t u = 0; u < 8; ++u) {
    const geom::Vec2 ap = corners[u % 4];
    const geom::Vec2 toward = (geom::Vec2{4.0, 4.0} - ap).normalized();
    scenes.push_back(corner_user(
        ap, ap + toward * (2.0 + 0.3 * static_cast<double>(u / 4))));
  }
  ride_reflector(scenes[5], 1);
  std::vector<arena::Interferer> aggressors;
  for (std::size_t u = 1; u < scenes.size(); ++u) {
    aggressors.push_back({&scenes[u], u == 5, 1});
  }
  const arena::InterferenceConfig config;
  double sink = arena::sinr_penalty_db(scenes[0], aggressors, config);

  testing::alloc_counter_start();
  for (int i = 0; i < 16; ++i) {
    sink += arena::sinr_penalty_db(scenes[0], aggressors, config);
  }
  const std::uint64_t allocs = testing::alloc_counter_stop();
  EXPECT_EQ(allocs, 0u) << "warmed sinr_penalty_db touched the heap "
                        << allocs << " time(s)";
  EXPECT_GT(sink, 0.0);
}

}  // namespace
}  // namespace movr::net
