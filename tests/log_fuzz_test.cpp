// Seeded mutation fuzzing of the untrusted log surface — log::parse_log
// and log::verify_log — over a short recorded soak log, in the style of
// property_fuzz_test: deterministic, no external fuzzer. Under the asan
// preset (`ctest --preset asan -R LogFuzz`) every case also proves the
// reader and verifier free of memory errors and undefined behaviour.
//
// Mutations: flip a byte, drop, duplicate or swap lines, truncate, and
// rewrite a number to an extreme value. A mutated log that keeps its
// original chain must never be accepted, and the first bad record the
// reader or verifier names must be the mutated one. Every third case is
// instead re-chained with the empty key — a forger's rewrite — so the
// invariant pass runs on hostile values too.
#include <log/reader.hpp>
#include <log/recorder.hpp>
#include <log/verify.hpp>

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include <channel/obstacle.hpp>
#include <core/config_epoch.hpp>
#include <core/gain_control.hpp>
#include <geom/angle.hpp>
#include <sim/fault_injector.hpp>
#include <sim/rng.hpp>
#include <vr/session.hpp>

namespace movr::log {
namespace {

using geom::deg_to_rad;
using namespace std::chrono_literals;

/// Lines without their '\n'; a trailing partial line is kept.
std::vector<std::string> split_lines(std::string_view text) {
  std::vector<std::string> lines;
  while (!text.empty()) {
    const std::size_t nl = text.find('\n');
    lines.emplace_back(text.substr(0, nl));
    text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

/// Re-chains `lines` with the empty key: drops each line's h= suffix,
/// renumbers its q= to its position and appends the recomputed chain hash,
/// so the chain pass no longer sees the edit.
std::string rechain(const std::vector<std::string>& lines) {
  std::uint64_t chain = chain_seed("");
  std::string out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string canonical = lines[i].substr(0, lines[i].rfind(" h="));
    const std::size_t q = canonical.find(" q=");
    if (q != std::string::npos) {
      const std::size_t end =
          std::min(canonical.find(' ', q + 1), canonical.size());
      canonical.replace(q, end - q, " q=" + std::to_string(i));
    }
    chain = chain_next(chain, canonical, "");
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016" PRIx64, chain);
    out += canonical + " h=" + hex + "\n";
  }
  return out;
}

/// A short soak log through the real emission hooks: one reflector
/// carrying the link through a hand blockage while a control partition
/// cuts it off, chaos_soak's 20 ms control and reflector snapshots, the
/// transport ledger, and one angle search's launch/done pair.
std::string record_soak_log() {
  core::Scene scene{channel::Room{5.0, 5.0},
                    core::ApRadio{{0.4, 0.4}, deg_to_rad(45.0)},
                    core::HeadsetRadio{{3.0, 2.0}, 0.0}};
  auto& reflector = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0));
  reflector.front_end().steer_rx(scene.true_reflector_angle_to_ap(reflector));
  reflector.front_end().steer_tx(
      scene.true_reflector_angle_to_headset(reflector));
  std::mt19937_64 cal{5};
  core::GainController::run(reflector.front_end(),
                            scene.reflector_input(reflector), cal);
  scene.aim_direct();

  sim::Simulator simulator;
  Recorder::Config log_config;
  log_config.bench = "log_fuzz_test";
  log_config.seed = 1;
  Recorder recorder{log_config};
  recorder.bind_clock(&simulator);
  sim::ControlChannel control{simulator, {}, std::mt19937_64{3}};
  core::LinkManager::Config manager_config;
  manager_config.recorder = &recorder;
  manager_config.reflector_reachable = [&control](std::size_t) {
    return !control.partitioned();
  };
  vr::MovrStrategy strategy{simulator, scene, std::mt19937_64{6},
                            manager_config};
  const core::ReflectorConfigAgent::Config agent_config;
  core::ReflectorConfigAgent agent{simulator, control, reflector,
                                   agent_config, std::mt19937_64{8}};
  agent.set_recorder(&recorder, 0);
  agent.start();
  core::ControlPlane plane{simulator, control, {}};
  plane.set_recorder(&recorder);
  plane.bind_health(&strategy.manager().health());
  plane.manage(0, reflector, &agent);
  plane.start();
  plane.commit(0, {reflector.front_end().rx_array().steering(),
                   reflector.front_end().tx_array().steering(),
                   reflector.front_end().gain_code()});

  sim::FaultInjector injector{simulator};
  injector.inject(
      "hand_blockage", sim::TimePoint{500ms}, 2s,
      [&scene] {
        scene.room().add_obstacle(channel::make_hand(
            scene.headset().node().position(),
            scene.ap().node().position() -
                scene.headset().node().position()));
      },
      [&scene] { scene.room().remove_obstacles("hand"); });
  injector.inject_control_partition(control, sim::TimePoint{1s}, 1s);

  const sim::Duration grace = agent_config.silence_timeout +
                              2 * agent_config.watchdog_tick + 100ms;
  recorder.record(EventKind::kParams, {{"grace_us", grace.count() / 1000},
                                       {"osc_us", 1'000'000},
                                       {"div_us", 2'500'000},
                                       {"watchdog_us", 2'000'000},
                                       {"slack_us", 500'000},
                                       {"tick_us", 20'000},
                                       {"reflectors", 1}});
  simulator.at(sim::TimePoint{300ms}, [&] {
    recorder.record(EventKind::kSearchLaunch, {{"id", 0}});
  });
  simulator.at(sim::TimePoint{900ms}, [&] {
    recorder.record(EventKind::kSearchDone, {{"id", 0},
                                             {"completed", 1},
                                             {"reason_h", 0},
                                             {"took_us", 600'000}});
  });
  const sim::TimePoint end{3s};
  for (sim::TimePoint t{20ms}; t < end; t += 20ms) {
    simulator.at(t, [&] {
      const auto& cs = control.stats();
      recorder.record(
          EventKind::kSnapshotControl,
          {{"sent", static_cast<std::int64_t>(cs.sent)},
           {"delivered", static_cast<std::int64_t>(cs.delivered)},
           {"dropped", static_cast<std::int64_t>(cs.dropped)},
           {"undeliv", static_cast<std::int64_t>(cs.undeliverable)},
           {"in_flight", static_cast<std::int64_t>(cs.in_flight)},
           {"part", control.partitioned() ? 1 : 0}});
      const bool stable =
          reflector.front_end().process(scene.reflector_input(reflector))
              .stable;
      recorder.record(
          EventKind::kSnapshotReflector,
          {{"r", 0},
           {"gain",
            static_cast<std::int64_t>(reflector.front_end().gain_code())},
           {"safe_code", static_cast<std::int64_t>(agent.safe_gain_code())},
           {"safe_mode", agent.in_safe_mode() ? 1 : 0},
           {"stable", stable ? 1 : 0},
           {"div_age_us",
            plane.divergence_age(0, simulator.now()).count() / 1000},
           {"plane_part", plane.partitioned(0) ? 1 : 0}});
    });
  }

  vr::Session::Config config;
  config.duration = end;
  config.faults = &injector;
  config.control_plane = &plane;
  config.transport = net::TransportConfig{};
  config.recorder = &recorder;
  vr::Session session{simulator, scene, strategy, nullptr, nullptr, config};
  session.run();
  recorder.close();
  return recorder.buffer();
}

const std::string& soak_log() {
  static const std::string log = record_soak_log();
  return log;
}

TEST(LogFuzz, RecordedSoakLogVerifiesClean) {
  const VerifyReport report = verify_log(parse_log(soak_log()), "");
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.has_params);
  EXPECT_EQ(report.control_snapshots, 149u);
  EXPECT_EQ(report.reflector_snapshots, 149u);
  EXPECT_GT(report.transport_snapshots, 0u);
  EXPECT_EQ(report.searches, 1u);
}

// ---------------------------------------------------------------------
// Fixed cases: inputs that trapped or mis-parsed before the hardening.
// ---------------------------------------------------------------------

TEST(LogFuzz, OutOfRangeIntegersAreRejected) {
  for (const char* t : {"18446744073709551617", "9223372036854775808",
                        "-9223372036854775809"}) {
    const ParsedLog parsed =
        parse_log(rechain({std::string{"t="} + t + " q=0 k=log_open"}));
    EXPECT_FALSE(parsed.ok()) << t;
  }
  const ParsedLog extremes = parse_log(
      rechain({"t=-9223372036854775808 q=0 k=log_open",
               "t=9223372036854775807 q=1 k=log_close"}));
  ASSERT_TRUE(extremes.ok()) << extremes.error;
  EXPECT_EQ(extremes.records[0].t_us,
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(extremes.records[1].t_us,
            std::numeric_limits<std::int64_t>::max());
}

TEST(LogFuzz, ExtremeTimesSaturateInsteadOfOverflowing) {
  // A partition opened at the earliest representable time and a search
  // launched there: every age is past every bound, without overflow.
  const VerifyReport report = verify_log(
      parse_log(rechain(
          {"t=0 q=0 k=log_open version=1",
           "t=0 q=0 k=params grace_us=100 osc_us=100 div_us=100 "
           "watchdog_us=100 slack_us=0 tick_us=0 reflectors=1",
           "t=-9223372036854775808 q=0 k=snapshot_control part=1",
           "t=-9223372036854775808 q=0 k=search_launch id=0",
           "t=9223372036854775807 q=0 k=snapshot_reflector r=0 gain=9 "
           "safe_code=1 stable=1",
           "t=9223372036854775807 q=0 k=search_done id=0 completed=1",
           "t=9223372036854775807 q=0 k=log_close"})),
      "");
  ASSERT_TRUE(report.chain_issues.empty());
  ASSERT_EQ(report.invariant_issues.size(), 2u);
  EXPECT_NE(report.invariant_issues[0].what.find("invariant A"),
            std::string::npos);
  EXPECT_NE(report.invariant_issues[1].what.find("took 9223372036854775807"),
            std::string::npos);
}

TEST(LogFuzz, SaturatedLedgerAndBoundsReportWithoutOverflow) {
  const VerifyReport report = verify_log(
      parse_log(rechain(
          {"t=0 q=0 k=log_open version=1",
           "t=0 q=0 k=params watchdog_us=9223372036854775807 "
           "slack_us=9223372036854775807 tick_us=20000",
           "t=20000 q=0 k=snapshot_control sent=1 "
           "delivered=9223372036854775807 dropped=9223372036854775807",
           "t=20000 q=0 k=search_launch id=0",
           "t=40000 q=0 k=search_done id=0 completed=1",
           "t=40000 q=0 k=log_close"})),
      "");
  ASSERT_TRUE(report.chain_issues.empty());
  // The ledger sum leaves int64: open. The E bound saturates: no breach.
  ASSERT_EQ(report.invariant_issues.size(), 1u);
  EXPECT_NE(report.invariant_issues[0].what.find(
                "control ledger open (sent 1 != closed out of int64 range)"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// Seeded mutations.
// ---------------------------------------------------------------------

enum class Mutation {
  kFlipByte,
  kDropLine,
  kDuplicateLine,
  kSwapLines,
  kTruncate,
  kExtremeNumber,
};
constexpr int kMutations = 6;

std::size_t pick(std::mt19937_64& rng, std::size_t lo, std::size_t hi) {
  return std::uniform_int_distribution<std::size_t>{lo, hi}(rng);
}

/// Rewrites one t=/q=/payload value on a random line to an extreme.
std::string rewrite_number(std::vector<std::string> lines,
                           std::mt19937_64& rng) {
  static constexpr const char* kExtremes[] = {
      "9223372036854775807",  "-9223372036854775808",
      "9223372036854775808",  "18446744073709551617",
      "-9223372036854775809", "0",
      "-1"};
  std::string& line = lines[pick(rng, 0, lines.size() - 1)];
  std::vector<std::size_t> values;  // offsets of numeric values
  for (std::size_t at = 0; at < line.size();) {
    if (line.compare(at, 2, "k=") != 0 && line.compare(at, 2, "h=") != 0) {
      values.push_back(line.find('=', at) + 1);
    }
    at = std::min(line.find(' ', at), line.size()) + 1;
  }
  const std::size_t value = values[pick(rng, 0, values.size() - 1)];
  const std::size_t value_end = std::min(line.find(' ', value), line.size());
  const std::string old = line.substr(value, value_end - value);
  std::string extreme = kExtremes[pick(rng, 0, std::size(kExtremes) - 1)];
  if (extreme == old) {
    extreme = old == "0" ? "-1" : "0";
  }
  line.replace(value, value_end - value, extreme);
  return join_lines(lines);
}

std::string mutate(Mutation kind, const std::string& text,
                   std::mt19937_64& rng) {
  std::vector<std::string> lines = split_lines(text);
  const std::size_t n = lines.size();
  switch (kind) {
    case Mutation::kFlipByte: {
      std::string out = text;
      const std::size_t at = pick(rng, 0, out.size() - 1);
      out[at] = static_cast<char>(static_cast<unsigned char>(out[at]) ^
                                  pick(rng, 1, 255));
      return out;
    }
    case Mutation::kDropLine:
      lines.erase(lines.begin() +
                  static_cast<std::ptrdiff_t>(pick(rng, 0, n - 1)));
      return join_lines(lines);
    case Mutation::kDuplicateLine: {
      const std::size_t at = pick(rng, 0, n - 1);
      const std::string copy = lines[at];
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), copy);
      return join_lines(lines);
    }
    case Mutation::kSwapLines: {
      const std::size_t a = pick(rng, 0, n - 1);
      std::size_t b = pick(rng, 0, n - 2);
      b += b >= a ? 1 : 0;
      std::swap(lines[a], lines[b]);
      return join_lines(lines);
    }
    case Mutation::kTruncate:
      // Keep at least one byte and lose at least one byte of content
      // (dropping only the final newline changes nothing).
      return text.substr(0, pick(rng, 1, text.size() - 2));
    case Mutation::kExtremeNumber:
      return rewrite_number(std::move(lines), rng);
  }
  return text;
}

/// The mutated log keeps the original chain: it must be rejected, naming
/// the first line that differs from the original.
void expect_caught_at_mutation(const std::string& original,
                               const std::string& mutated) {
  const std::vector<std::string> before = split_lines(original);
  const std::vector<std::string> after = split_lines(mutated);
  std::size_t first = 0;
  while (first < after.size() && first < before.size() &&
         after[first] == before[first]) {
    ++first;
  }
  const ParsedLog parsed = parse_log(mutated);
  if (!parsed.ok()) {
    EXPECT_EQ(parsed.error.rfind("line " + std::to_string(first + 1) + ":", 0),
              0u)
        << parsed.error << " (first mutated line " << first + 1 << ")";
    return;
  }
  const VerifyReport report = verify_log(parsed, "");
  ASSERT_FALSE(report.chain_issues.empty()) << "mutated log accepted";
  // A strict prefix is a truncation, named at its last record.
  const ParsedRecord& named = first < parsed.records.size()
                                  ? parsed.records[first]
                                  : parsed.records.back();
  EXPECT_EQ(report.chain_issues.front().seq, named.seq)
      << report.chain_issues.front().what;
  EXPECT_EQ(report.chain_issues.front().t_us, named.t_us);
}

class LogFuzzMutations : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LogFuzzMutations, AreCaughtOrVerifiedSafely) {
  const std::string& original = soak_log();
  sim::RngRegistry rngs{GetParam()};
  auto rng = rngs.stream("log_fuzz");
  int rechained = 0;
  int reached_invariants = 0;
  for (int i = 0; i < 120; ++i) {
    // Each mutation kind runs in groups of three cases, the last of which
    // is re-chained.
    const int kind = (i / 3) % kMutations;
    SCOPED_TRACE("case " + std::to_string(i) + ", mutation " +
                 std::to_string(kind));
    const std::string mutated =
        mutate(static_cast<Mutation>(kind), original, rng);
    ASSERT_NE(mutated, original);
    if (i % 3 != 2) {
      expect_caught_at_mutation(original, mutated);
      continue;
    }
    ++rechained;
    const ParsedLog parsed = parse_log(rechain(split_lines(mutated)));
    if (!parsed.ok()) {
      continue;  // e.g. an out-of-range value: rejected by the reader
    }
    const VerifyReport report = verify_log(parsed, "");
    reached_invariants += report.chain_issues.empty() ? 1 : 0;
  }
  EXPECT_EQ(rechained, 40);
  // Re-chaining must actually get hostile records past the chain pass.
  EXPECT_GT(reached_invariants, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LogFuzzMutations,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace movr::log
