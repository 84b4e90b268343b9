// google-benchmark microbenchmarks of the simulator's hot paths: these set
// how long the experiment benches take and bound what a real-time control
// loop built on this library could evaluate per frame.
//
// Beyond the standard google-benchmark cases, `--json PATH` runs the
// batch-vs-scalar comparison summary: the coverage-grid path query through
// the scalar APIs (solve() / a deep copy of paths_view() per pair) against
// the batch stack (solve_batch / query_batch), with a bit-identity
// cross-check and a hard gate on the warmed oracle speedup (DESIGN.md §11
// promises >= 10x), timed as interleaved passes so that machine load hits
// both arms alike. It also times the link-budget kernels the arena spends
// its time in: the array factor, one array response and the interference
// penalty at 4, 8, 16 and 32 users, with the marginal cost per foreign-AP
// aggressor. The summary writes the BENCH_microbench.json artifact via the
// shared bench::Json emitter; CI regenerates and uploads it.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <arena/interference.hpp>
#include <channel/path_batch.hpp>
#include <channel/path_solver.hpp>
#include <core/channel_oracle.hpp>
#include <core/coverage.hpp>
#include <core/movr.hpp>
#include <geom/angle.hpp>
#include <net/transport.hpp>
#include <phy/beam_sweep.hpp>
#include <phy/link.hpp>
#include <rf/codebook.hpp>
#include <sim/rng.hpp>

#include "arena_world.hpp"
#include "bench_util.hpp"

namespace {

using namespace movr;
using geom::deg_to_rad;

/// The tentpole workload: one coverage grid's worth of AP->cell endpoint
/// pairs over the paper office (same spacing compute_coverage defaults to).
channel::EndpointBatch coverage_grid_endpoints(const channel::Room& room,
                                               double spacing = 0.25) {
  channel::EndpointBatch grid;
  const geom::Vec2 ap{0.4, 0.4};
  for (double y = 0.4; y <= room.depth() - 0.4 + 1e-9; y += spacing) {
    for (double x = 0.4; x <= room.width() - 0.4 + 1e-9; x += spacing) {
      grid.push(ap, {x, y});
    }
  }
  return grid;
}

net::TransportConfig steady_transport_config() {
  net::TransportConfig config;
  config.source.fps = 90.0;
  config.source.target_mbps = 2000.0;
  config.source.latency_budget = std::chrono::milliseconds{10};
  config.fec.k = 4;
  config.fec.depth = 2;
  return config;
}

core::Scene make_scene() {
  return core::Scene{channel::Room::paper_office(),
                     core::ApRadio{{0.4, 0.4}, deg_to_rad(45.0)},
                     core::HeadsetRadio{{3.0, 2.0}, 0.0}};
}

void BM_ArrayGain(benchmark::State& state) {
  rf::PhasedArray array;
  array.steer(deg_to_rad(75.0));
  double angle = 0.4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(array.gain(angle).value());
    angle += 1e-4;
  }
}
BENCHMARK(BM_ArrayGain);

void BM_ArrayField(benchmark::State& state) {
  rf::PhasedArray array;
  array.steer(deg_to_rad(75.0));
  double angle = 0.4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(array.field(angle));
    angle += 1e-4;
  }
}
BENCHMARK(BM_ArrayField);

void BM_ArrayResponse(benchmark::State& state) {
  rf::PhasedArray array;
  array.steer(deg_to_rad(75.0));
  double angle = 0.4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(phy::array_response(array, angle));
    angle += 1e-4;
  }
}
BENCHMARK(BM_ArrayResponse);

void BM_ArraySteer(benchmark::State& state) {
  rf::PhasedArray array;
  double angle = deg_to_rad(40.0);
  for (auto _ : state) {
    array.steer(angle);
    angle += 1e-4;
  }
}
BENCHMARK(BM_ArraySteer);

// The three tiers of the path-query stack, same endpoints throughout.
// Uncached: build the wall-image tree from scratch every call. Solver:
// images precomputed once, solve per call. Cached: the scene's revisioned
// oracle memoises the whole answer.
void BM_PathQueryUncached(benchmark::State& state) {
  const auto room = channel::Room::paper_office();
  for (auto _ : state) {
    const channel::PathSolver solver{room};
    benchmark::DoNotOptimize(solver.solve({0.4, 0.4}, {3.3, 2.7}));
  }
}
BENCHMARK(BM_PathQueryUncached);

void BM_PathQuerySolver(benchmark::State& state) {
  const auto room = channel::Room::paper_office();
  const channel::PathSolver solver{room};
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve({0.4, 0.4}, {3.3, 2.7}));
  }
}
BENCHMARK(BM_PathQuerySolver);

void BM_PathQueryCached(benchmark::State& state) {
  const auto scene = make_scene();
  scene.reset_oracle_stats();
  for (auto _ : state) {
    benchmark::DoNotOptimize(scene.paths_view({0.4, 0.4}, {3.3, 2.7}));
  }
  state.counters["hit_rate"] = scene.oracle_stats().hit_rate();
}
BENCHMARK(BM_PathQueryCached);

// Batch-vs-scalar: the same coverage grid through each tier of the stack.
// Scalar solver = solve() per pair (fresh vectors, heap per call); batch
// solver = one solve_batch into recycled Path slots. Scalar oracle = a deep
// copy of paths_view per pair on a warm cache; batch oracle = query_batch
// borrowed views under one lock.
void BM_PathQueryScalarGrid(benchmark::State& state) {
  const auto room = channel::Room::paper_office();
  const channel::PathSolver solver{room};
  const auto grid = coverage_grid_endpoints(room);
  for (auto _ : state) {
    for (std::size_t q = 0; q < grid.size(); ++q) {
      benchmark::DoNotOptimize(solver.solve(grid.a(q), grid.b(q)));
    }
  }
  state.counters["queries"] = static_cast<double>(grid.size());
}
BENCHMARK(BM_PathQueryScalarGrid)->Unit(benchmark::kMillisecond);

void BM_PathQueryBatchGrid(benchmark::State& state) {
  const auto room = channel::Room::paper_office();
  const channel::PathSolver solver{room};
  const auto grid = coverage_grid_endpoints(room);
  channel::PathBatch batch;
  channel::PathSolver::BatchWorkspace ws;
  for (auto _ : state) {
    solver.solve_batch(grid, batch, ws);
    benchmark::DoNotOptimize(batch.paths());
  }
  state.counters["queries"] = static_cast<double>(grid.size());
}
BENCHMARK(BM_PathQueryBatchGrid)->Unit(benchmark::kMillisecond);

void BM_PathQueryOracleScalarGrid(benchmark::State& state) {
  const auto room = channel::Room::paper_office();
  const core::ChannelOracle oracle{room};
  const auto grid = coverage_grid_endpoints(room);
  for (std::size_t q = 0; q < grid.size(); ++q) {
    oracle.paths_view(grid.a(q), grid.b(q));  // warm the cache
  }
  for (auto _ : state) {
    for (std::size_t q = 0; q < grid.size(); ++q) {
      benchmark::DoNotOptimize(
          std::vector<channel::Path>{*oracle.paths_view(grid.a(q), grid.b(q))});
    }
  }
  state.counters["queries"] = static_cast<double>(grid.size());
}
BENCHMARK(BM_PathQueryOracleScalarGrid)->Unit(benchmark::kMillisecond);

void BM_PathQueryOracleBatchGrid(benchmark::State& state) {
  const auto room = channel::Room::paper_office();
  const core::ChannelOracle oracle{room};
  const auto grid = coverage_grid_endpoints(room);
  std::vector<core::ChannelOracle::PathsView> views;
  oracle.query_batch(grid, views);  // warm the cache and the scratch
  for (auto _ : state) {
    oracle.query_batch(grid, views);
    benchmark::DoNotOptimize(views.data());
  }
  state.counters["queries"] = static_cast<double>(grid.size());
}
BENCHMARK(BM_PathQueryOracleBatchGrid)->Unit(benchmark::kMillisecond);

// One steady-state 90 Hz transport tick (packetize + FEC + queue + the
// event cascade up to the next tick) under a fixed lossy channel — the
// zero-allocation hot loop.
void BM_TransportSteadyTick(benchmark::State& state) {
  sim::Simulator simulator;
  net::Transport transport{simulator, steady_transport_config()};
  const sim::Duration interval = sim::from_seconds(1.0 / 90.0);
  net::ChannelState channel;
  channel.mcs = &phy::mcs_table()[phy::mcs_table().size() / 2];
  channel.packet_loss = 0.12;
  std::int64_t tick = 0;
  for (auto _ : state) {
    simulator.run_until(interval * tick);
    transport.on_frame(channel);
    ++tick;
  }
  state.counters["arena_bytes"] =
      static_cast<double>(transport.arena_bytes());
}
BENCHMARK(BM_TransportSteadyTick);

void BM_CoverageMap(benchmark::State& state) {
  const unsigned threads = static_cast<unsigned>(state.range(0));
  auto scene = make_scene();
  auto& reflector = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0));
  reflector.front_end().steer_rx(scene.true_reflector_angle_to_ap(reflector));
  reflector.front_end().set_gain_code(200);
  scene.ap().node().steer_toward(reflector.position());
  double hit_rate = 0.0;
  for (auto _ : state) {
    const auto map = core::compute_coverage(scene, 0.25, 0.5, threads);
    hit_rate = map.oracle.hit_rate();
    benchmark::DoNotOptimize(map.cells.data());
  }
  state.counters["threads"] = threads;
  state.counters["hit_rate"] = hit_rate;
}
BENCHMARK(BM_CoverageMap)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Scene's hop memos return a repeated query's power without evaluating the
// link, so the two link benchmarks below turn the ends' mountings between
// two orientations 1e-6 rad apart on every iteration: each iteration
// evaluates every hop it reads once.

void BM_LinkSnr(benchmark::State& state) {
  auto scene = make_scene();
  scene.aim_direct();
  phy::RadioNode& headset = scene.headset().node();
  const double mounting = headset.orientation();
  int turn = 0;
  for (auto _ : state) {
    turn ^= 1;
    headset.set_orientation(mounting + 1e-6 * turn);
    benchmark::DoNotOptimize(scene.direct_snr().value());
  }
}
BENCHMARK(BM_LinkSnr);

void BM_ViaReflectorSnr(benchmark::State& state) {
  auto scene = make_scene();
  auto& reflector = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0));
  reflector.front_end().steer_rx(scene.true_reflector_angle_to_ap(reflector));
  reflector.front_end().steer_tx(
      scene.true_reflector_angle_to_headset(reflector));
  reflector.front_end().set_gain_code(200);
  scene.aim_via(reflector);
  // The AP's turn changes the direct and reflector-input hops, the
  // headset's the direct and relay hops.
  phy::RadioNode& ap = scene.ap().node();
  phy::RadioNode& headset = scene.headset().node();
  const double ap_mounting = ap.orientation();
  const double headset_mounting = headset.orientation();
  int turn = 0;
  for (auto _ : state) {
    turn ^= 1;
    ap.set_orientation(ap_mounting + 1e-6 * turn);
    headset.set_orientation(headset_mounting + 1e-6 * turn);
    benchmark::DoNotOptimize(scene.via_snr(reflector).snr.value());
  }
}
BENCHMARK(BM_ViaReflectorSnr);

/// One arena frame at fixed steering: bench/arena's room with `users`
/// users spread over the four APs' quadrants, users 4-7 riding the four
/// reflectors, and user 0 the victim of everyone else's beams.
struct ArenaFrame {
  std::vector<core::Scene> scenes;
  std::vector<arena::Interferer> aggressors;

  explicit ArenaFrame(std::size_t users) {
    const core::Scene world = bench::arena_scene();
    scenes.reserve(users);
    for (std::size_t u = 0; u < users; ++u) {
      core::Scene scene = world.clone();
      const geom::Vec2 ap = bench::kApPositions[u % 4];
      const geom::Vec2 toward = (bench::kCenter - ap).normalized();
      const geom::Vec2 perp{-toward.y, toward.x};
      const double k = static_cast<double>(u / 4);
      scene.ap().node().set_position(ap);
      scene.ap().node().set_orientation(
          deg_to_rad(bench::kApOrientationsDeg[u % 4]));
      scene.headset().node().set_position(ap + toward * (1.8 + 0.17 * k) +
                                          perp * (0.25 * k - 0.9));
      scene.aim_direct();
      scenes.push_back(std::move(scene));
    }
    std::mt19937_64 rng{1};
    for (std::size_t u = 4; u < std::min<std::size_t>(users, 8); ++u) {
      scenes[u].calibrate_reflector(scenes[u].reflector(u - 4), rng);
    }
    for (std::size_t u = 1; u < users; ++u) {
      const bool via = u >= 4 && u < 8;
      aggressors.push_back({&scenes[u], via, via ? u - 4 : 0});
    }
  }

  double penalty() const {
    return arena::sinr_penalty_db(scenes[0], aggressors, {});
  }
};

void BM_SinrPenalty(benchmark::State& state) {
  const ArenaFrame frame{static_cast<std::size_t>(state.range(0))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(frame.penalty());
  }
}
BENCHMARK(BM_SinrPenalty)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_LeakageEval(benchmark::State& state) {
  const hw::LeakageModel model;
  double tx = 0.7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.coupling(tx, 1.1).value());
    tx += 1e-4;
  }
}
BENCHMARK(BM_LeakageEval);

void BM_GainControlRamp(benchmark::State& state) {
  auto scene = make_scene();
  auto& reflector = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0));
  reflector.front_end().steer_rx(scene.true_reflector_angle_to_ap(reflector));
  reflector.front_end().steer_tx(
      scene.true_reflector_angle_to_headset(reflector));
  scene.ap().node().steer_toward(reflector.position());
  const rf::DbmPower input = scene.reflector_input(reflector);
  std::mt19937_64 rng{1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::GainController::run(reflector.front_end(), input, rng));
  }
}
BENCHMARK(BM_GainControlRamp);

void BM_BeamSweep21x21(benchmark::State& state) {
  auto scene = make_scene();
  const auto codebook = rf::paper_sector_codebook(5.0);
  const auto paths = scene.paths_view(scene.ap().node().position(),
                                      scene.headset().node().position());
  for (auto _ : state) {
    benchmark::DoNotOptimize(phy::sweep_best_beams(
        scene.ap().node(), scene.headset().node(), *paths,
        scene.config().link, codebook, codebook));
  }
}
BENCHMARK(BM_BeamSweep21x21);

void BM_WidebandPower(benchmark::State& state) {
  std::vector<phy::PathComponent> components;
  for (int i = 0; i < 12; ++i) {
    components.push_back({std::polar(1e-3, 0.3 * i), 3.0 + 0.7 * i});
  }
  const phy::LinkConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        phy::wideband_power(components, config, rf::Decibels{11.0}));
  }
}
BENCHMARK(BM_WidebandPower);

void BM_BackscatterMeasurement(benchmark::State& state) {
  auto scene = make_scene();
  auto& reflector = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0));
  reflector.front_end().set_gain_code(170);
  reflector.front_end().set_modulating(true);
  const double both = scene.true_reflector_angle_to_ap(reflector);
  reflector.front_end().steer_rx(both);
  reflector.front_end().steer_tx(both);
  scene.ap().node().steer_toward(reflector.position());
  for (auto _ : state) {
    benchmark::DoNotOptimize(scene.backscatter_at_ap(reflector).value());
  }
}
BENCHMARK(BM_BackscatterMeasurement);

void BM_EventQueueChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    int counter = 0;
    for (int i = 0; i < 1000; ++i) {
      simulator.after(sim::Duration{(i * 37) % 1000},
                      [&counter] { ++counter; });
    }
    simulator.run();
    benchmark::DoNotOptimize(counter);
  }
}
BENCHMARK(BM_EventQueueChurn);

// ---------------------------------------------------------------------------
// --json summary: batch vs scalar over the coverage grid, measured directly
// (steady-clock passes, not google-benchmark) so the artifact is one small
// self-contained document. Exits nonzero when the batch answers diverge
// from the scalar ones or the warmed oracle speedup falls below 10x.

/// Mean nanoseconds per pass of `pass`, after one warmup pass.
template <typename F>
double ns_per_pass(F&& pass) {
  using clock = std::chrono::steady_clock;
  pass();  // warmup
  int passes = 0;
  const auto start = clock::now();
  double elapsed_s = 0.0;
  do {
    pass();
    ++passes;
    elapsed_s = std::chrono::duration<double>(clock::now() - start).count();
  } while (passes < 3 || elapsed_s < 0.2);
  return elapsed_s * 1e9 / passes;
}

/// Fastest pass of `a` and of `b`, in ns, after one warmup pass each. The
/// two alternate, pass for pass, until each has run three times and both
/// together 0.4 s: load from other processes (a parallel ctest) then falls
/// on both arms alike, and each arm's fastest pass is its least disturbed
/// one, so their ratio does not depend on the machine's load.
template <typename A, typename B>
std::pair<double, double> fastest_passes_ns(A&& a, B&& b) {
  using clock = std::chrono::steady_clock;
  const auto time_ns = [](auto& pass) {
    const auto start = clock::now();
    pass();
    return std::chrono::duration<double, std::nano>(clock::now() - start)
        .count();
  };
  a();  // warmup
  b();
  double best_a = std::numeric_limits<double>::infinity();
  double best_b = best_a;
  double elapsed_ns = 0.0;
  int passes = 0;
  do {
    const double a_ns = time_ns(a);
    const double b_ns = time_ns(b);
    best_a = std::min(best_a, a_ns);
    best_b = std::min(best_b, b_ns);
    elapsed_ns += a_ns + b_ns;
    ++passes;
  } while (passes < 3 || elapsed_ns < 0.4e9);
  return {best_a, best_b};
}

bool same_paths(std::span<const channel::Path> a,
                std::span<const channel::Path> b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].loss.value() != b[i].loss.value() ||
        a[i].length_m != b[i].length_m ||
        a[i].obstruction.value() != b[i].obstruction.value() ||
        a[i].bounces != b[i].bounces) {
      return false;
    }
  }
  return true;
}

int batch_speedup_summary(const std::string& json_path) {
  const auto room = channel::Room::paper_office();
  const auto grid = coverage_grid_endpoints(room);
  const std::size_t n = grid.size();

  // Solver tier: the batch kernel vs a scalar solve() loop.
  const channel::PathSolver solver{room};
  channel::PathBatch batch;
  channel::PathSolver::BatchWorkspace ws;
  solver.solve_batch(grid, batch, ws);
  for (std::size_t q = 0; q < n; ++q) {
    if (!same_paths(solver.solve(grid.a(q), grid.b(q)), batch.query(q))) {
      std::fprintf(stderr,
                   "microbench: solve_batch diverged from scalar solve()\n");
      return 1;
    }
  }
  const auto [solver_scalar_ns, solver_batch_ns] = fastest_passes_ns(
      [&] {
        for (std::size_t q = 0; q < n; ++q) {
          benchmark::DoNotOptimize(solver.solve(grid.a(q), grid.b(q)));
        }
      },
      [&] {
        solver.solve_batch(grid, batch, ws);
        benchmark::DoNotOptimize(batch.paths());
      });

  // Oracle tier: warmed query_batch views vs a per-cell deep copy of the
  // cached answer.
  const core::ChannelOracle oracle{room};
  std::vector<core::ChannelOracle::PathsView> views;
  oracle.query_batch(grid, views);
  for (std::size_t q = 0; q < n; ++q) {
    if (views[q] == nullptr ||
        !same_paths(solver.solve(grid.a(q), grid.b(q)), *views[q])) {
      std::fprintf(stderr,
                   "microbench: query_batch diverged from scalar solve()\n");
      return 1;
    }
  }
  const auto [oracle_scalar_ns, oracle_batch_ns] = fastest_passes_ns(
      [&] {
        for (std::size_t q = 0; q < n; ++q) {
          benchmark::DoNotOptimize(std::vector<channel::Path>{
              *oracle.paths_view(grid.a(q), grid.b(q))});
        }
      },
      [&] {
        oracle.query_batch(grid, views);
        benchmark::DoNotOptimize(views.data());
      });
  const auto oracle_stats = oracle.stats();

  // Transport tier: mean steady-state tick cost (no gate — the contract
  // here is zero allocation, enforced by tests/net_alloc_regression_test).
  sim::Simulator simulator;
  net::Transport transport{simulator, steady_transport_config()};
  const sim::Duration interval = sim::from_seconds(1.0 / 90.0);
  net::ChannelState channel;
  channel.mcs = &phy::mcs_table()[phy::mcs_table().size() / 2];
  channel.packet_loss = 0.12;
  std::int64_t tick = 0;
  const auto run_ticks = [&](int count) {
    for (int i = 0; i < count; ++i) {
      simulator.run_until(interval * tick);
      transport.on_frame(channel);
      ++tick;
    }
  };
  run_ticks(200);  // warm every pool to steady state
  const double tick_ns = ns_per_pass([&] { run_ticks(100); }) / 100.0;

  // Link-budget tier (the arena's hot spot, DESIGN.md §11.4): the array
  // factor, one array response and one interference penalty at 4-32 users,
  // warm.
  rf::PhasedArray array;
  array.steer(deg_to_rad(75.0));
  constexpr int kAngles = 1000;
  const auto sweep_ns = [&](auto&& eval) {
    return ns_per_pass([&] {
      for (int i = 0; i < kAngles; ++i) {
        benchmark::DoNotOptimize(eval(0.4 + 2e-3 * i));
      }
    }) / kAngles;
  };
  const double field_ns = sweep_ns([&](double a) { return array.field(a); });
  const double response_ns =
      sweep_ns([&](double a) { return phy::array_response(array, a); });
  constexpr std::size_t kUsers[] = {4, 8, 16, 32};
  double penalty_ns[std::size(kUsers)] = {};
  for (std::size_t i = 0; i < std::size(kUsers); ++i) {
    const ArenaFrame frame{kUsers[i]};
    penalty_ns[i] =
        ns_per_pass([&] { benchmark::DoNotOptimize(frame.penalty()); });
  }
  // The cost of one more aggressor on a foreign AP: users 16-31 all ride
  // their APs directly. (Users 4-7 ride reflectors, so the 4 -> 8 step is
  // not AP-only.)
  const double per_ap_aggressor_ns = (penalty_ns[3] - penalty_ns[2]) /
                                     static_cast<double>(kUsers[3] - kUsers[2]);

  const double n_d = static_cast<double>(n);
  const double solver_speedup = solver_scalar_ns / solver_batch_ns;
  const double oracle_speedup = oracle_scalar_ns / oracle_batch_ns;

  bench::print_header("microbench: batched query stack vs scalar");
  std::printf("  coverage grid           : %zu queries (0.25 m spacing)\n",
              n);
  std::printf("  solver  scalar loop     : %8.1f ns/query\n",
              solver_scalar_ns / n_d);
  std::printf("  solver  solve_batch     : %8.1f ns/query   (%.2fx)\n",
              solver_batch_ns / n_d, solver_speedup);
  std::printf("  oracle  deep copy       : %8.1f ns/query (warm)\n",
              oracle_scalar_ns / n_d);
  std::printf("  oracle  query_batch     : %8.1f ns/query (warm, %.2fx)\n",
              oracle_batch_ns / n_d, oracle_speedup);
  std::printf("  transport steady tick   : %8.1f ns/tick (arena %zu B)\n",
              tick_ns, transport.arena_bytes());
  std::printf("  array field()           : %8.1f ns\n", field_ns);
  std::printf("  array_response()        : %8.1f ns\n", response_ns);
  for (std::size_t i = 0; i < std::size(kUsers); ++i) {
    std::printf("  sinr_penalty, %2zu users  : %8.1f ns\n", kUsers[i],
                penalty_ns[i]);
  }
  std::printf("  per foreign-AP aggressor: %8.1f ns\n", per_ap_aggressor_ns);

  bench::Json doc = bench::Json::object();
  doc.set("bench", "microbench_batch_vs_scalar");
  doc.set("grid", bench::Json::object()
                      .set("queries", static_cast<std::uint64_t>(n))
                      .set("spacing_m", 0.25));
  doc.set("solver",
          bench::Json::object()
              .set("scalar_ns_per_query", solver_scalar_ns / n_d)
              .set("batch_ns_per_query", solver_batch_ns / n_d)
              .set("speedup", solver_speedup));
  doc.set("oracle_warm",
          bench::Json::object()
              .set("scalar_ns_per_query", oracle_scalar_ns / n_d)
              .set("batch_ns_per_query", oracle_batch_ns / n_d)
              .set("speedup", oracle_speedup));
  doc.set("oracle_stats",
          bench::Json::object()
              .set("batch_queries", oracle_stats.batch_queries)
              .set("batch_probes_saved", oracle_stats.batch_probes_saved)
              .set("arena_bytes", oracle_stats.arena_bytes));
  doc.set("transport",
          bench::Json::object()
              .set("steady_tick_ns", tick_ns)
              .set("arena_bytes",
                   static_cast<std::uint64_t>(transport.arena_bytes())));
  bench::Json penalty = bench::Json::object();
  for (std::size_t i = 0; i < std::size(kUsers); ++i) {
    penalty.set("users_" + std::to_string(kUsers[i]), penalty_ns[i]);
  }
  doc.set("link_budget",
          bench::Json::object()
              .set("array_field_ns", field_ns)
              .set("array_response_ns", response_ns)
              .set("sinr_penalty_ns", std::move(penalty))
              .set("per_ap_aggressor_ns", per_ap_aggressor_ns));
  if (!bench::emit_json(json_path, doc)) {
    return 1;
  }

  if (oracle_speedup < 10.0) {
    std::fprintf(stderr,
                 "microbench: warmed batched coverage-grid query is only "
                 "%.2fx the scalar loop (contract: >= 10x)\n",
                 oracle_speedup);
    return 1;
  }
  return 0;
}

}  // namespace

// Standard google-benchmark driver, plus `--json PATH` (stripped before
// benchmark::Initialize) to run the batch-vs-scalar summary afterwards.
int main(int argc, char** argv) {
  std::string json_path;
  bool run_summary = false;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
      run_summary = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return run_summary ? batch_speedup_summary(json_path) : 0;
}
