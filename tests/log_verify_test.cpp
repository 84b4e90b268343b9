// The event-log contract: recorder chain round-trips, tampering is caught
// at the first bad record, synthetic invariant violations are re-detected
// offline, and a recorded faulted session is (a) clean under the verifier,
// (b) byte-stable across identical runs, and (c) bit-identical to the
// same session run unrecorded.
#include <log/recorder.hpp>
#include <log/verify.hpp>

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include <channel/obstacle.hpp>
#include <core/gain_control.hpp>
#include <geom/angle.hpp>
#include <sim/fault_injector.hpp>
#include <vr/session.hpp>

namespace movr::log {
namespace {

using geom::deg_to_rad;
using namespace std::chrono_literals;

/// A small in-memory log with a few records; returns the closed buffer.
std::string small_log(std::string key = {}) {
  Recorder::Config config;
  config.key = std::move(key);
  config.bench = "test";
  config.seed = 7;
  Recorder recorder{config};
  recorder.record_at(sim::TimePoint{20ms}, EventKind::kHandoverBegin,
                     {{"reflector", 0}, {"seq", 1}});
  recorder.record_at(sim::TimePoint{40ms}, EventKind::kHandoverCommit,
                     {{"reflector", 0}});
  recorder.record_at(sim::TimePoint{60ms}, EventKind::kLeaseRelease,
                     {{"reflector", 0}});
  recorder.close();
  return recorder.buffer();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
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

TEST(LogChain, CleanRoundTripVerifies) {
  const std::string text = small_log();
  const ParsedLog parsed = parse_log(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(parsed.records.size(), 5u);  // open + 3 events + close
  const VerifyReport report = verify_log(parsed, "");
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(parsed.records[1].t_us, 20'000);
  EXPECT_EQ(parsed.records.back().field("records"), 4);
}

TEST(LogChain, WrongKeyBreaksAtSeqZero) {
  const std::string text = small_log("session-key");
  const VerifyReport good = verify_log(parse_log(text), "session-key");
  EXPECT_TRUE(good.ok());
  const VerifyReport bad = verify_log(parse_log(text), "");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.chain_issues.front().seq, 0);
}

TEST(LogChain, FlippedByteNamesTheRecord) {
  std::vector<std::string> lines = split_lines(small_log());
  // Flip a payload byte of seq 2, before its hash suffix.
  std::string& victim = lines[2];
  const std::size_t pos = victim.rfind(" h=") - 1;
  victim[pos] = victim[pos] == '0' ? '1' : '0';
  const VerifyReport report = verify_log(parse_log(join_lines(lines)), "");
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.chain_issues.front().seq, 2);
  EXPECT_NE(report.chain_issues.front().what.find("chain hash mismatch"),
            std::string::npos);
}

TEST(LogChain, DroppedRecordNamesTheGap) {
  std::vector<std::string> lines = split_lines(small_log());
  lines.erase(lines.begin() + 2);  // drop seq 2
  const VerifyReport report = verify_log(parse_log(join_lines(lines)), "");
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.chain_issues.front().seq, 3);
  EXPECT_NE(report.chain_issues.front().what.find("sequence break"),
            std::string::npos);
}

TEST(LogChain, SwappedRecordsNameTheFirstOutOfOrder) {
  std::vector<std::string> lines = split_lines(small_log());
  std::swap(lines[2], lines[3]);
  const VerifyReport report = verify_log(parse_log(join_lines(lines)), "");
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.chain_issues.front().seq, 3);
}

TEST(LogChain, TruncationIsCaught) {
  std::vector<std::string> lines = split_lines(small_log());
  lines.pop_back();  // drop log_close
  const VerifyReport report = verify_log(parse_log(join_lines(lines)), "");
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.chain_issues.front().what.find("truncated"),
            std::string::npos);
}

/// Recorder emitting a params record with soak-like bounds, for synthetic
/// invariant streams.
void emit_params(Recorder& recorder) {
  recorder.record(EventKind::kParams, {{"grace_us", 100'000},
                                       {"osc_us", 1'000'000},
                                       {"div_us", 2'500'000},
                                       {"watchdog_us", 2'000'000},
                                       {"slack_us", 500'000},
                                       {"tick_us", 20'000},
                                       {"reflectors", 1}});
}

TEST(LogInvariants, GainAboveFloorDuringOldPartition) {
  Recorder recorder{{}};
  emit_params(recorder);
  recorder.record_at(sim::TimePoint{0ms}, EventKind::kSnapshotControl,
                     {{"sent", 0},
                      {"delivered", 0},
                      {"dropped", 0},
                      {"undeliv", 0},
                      {"in_flight", 0},
                      {"part", 1}});
  // 200 ms into a partition with a 100 ms grace: gain must be at the floor.
  recorder.record_at(sim::TimePoint{200ms}, EventKind::kSnapshotReflector,
                     {{"r", 0},
                      {"gain", 100},
                      {"safe_code", 40},
                      {"safe_mode", 0},
                      {"stable", 1},
                      {"div_age_us", 0},
                      {"plane_part", 1}});
  recorder.close();
  const VerifyReport report = verify_log(parse_log(recorder.buffer()), "");
  ASSERT_EQ(report.invariant_issues.size(), 1u);
  EXPECT_NE(report.invariant_issues.front().what.find("invariant A"),
            std::string::npos);
}

TEST(LogInvariants, OpenLedgersAreCaught) {
  Recorder recorder{{}};
  emit_params(recorder);
  recorder.record_at(sim::TimePoint{20ms}, EventKind::kSnapshotControl,
                     {{"sent", 10},
                      {"delivered", 4},
                      {"dropped", 1},
                      {"undeliv", 0},
                      {"in_flight", 2},
                      {"part", 0}});
  recorder.record_at(sim::TimePoint{20ms}, EventKind::kSnapshotTransport,
                     {{"enqueued", 50},
                      {"delivered", 49},
                      {"dropped", 0},
                      {"recovered", 0},
                      {"spec_dup", 0},
                      {"in_flight", 0},
                      {"final", 0}});
  recorder.close();
  const VerifyReport report = verify_log(parse_log(recorder.buffer()), "");
  ASSERT_EQ(report.invariant_issues.size(), 2u);
  EXPECT_NE(report.invariant_issues[0].what.find("control ledger open"),
            std::string::npos);
  EXPECT_NE(report.invariant_issues[1].what.find("transport ledger open"),
            std::string::npos);
}

TEST(LogInvariants, SearchMustTerminateWithAReason) {
  Recorder recorder{{}};
  emit_params(recorder);
  recorder.record_at(sim::TimePoint{1s}, EventKind::kSearchLaunch,
                     {{"id", 0}});
  recorder.record_at(sim::TimePoint{2s}, EventKind::kSearchLaunch,
                     {{"id", 1}});
  // Search 1 "fails" with no reason; search 0 never reports back at all.
  recorder.record_at(sim::TimePoint{3s}, EventKind::kSearchDone,
                     {{"id", 1},
                      {"completed", 0},
                      {"reason_h", 0},
                      {"took_us", 1'000'000}});
  recorder.close();
  const VerifyReport report = verify_log(parse_log(recorder.buffer()), "");
  ASSERT_EQ(report.invariant_issues.size(), 2u);
  EXPECT_NE(report.invariant_issues[0].what.find("failed without a reason"),
            std::string::npos);
  EXPECT_NE(report.invariant_issues[1].what.find("never terminated"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// Round trip: a 10 s faulted session through the real emission hooks.
// ---------------------------------------------------------------------

core::Scene logged_scene() {
  core::Scene scene{channel::Room{5.0, 5.0},
                    core::ApRadio{{0.4, 0.4}, deg_to_rad(45.0)},
                    core::HeadsetRadio{{3.0, 2.0}, 0.0}};
  auto& reflector = scene.add_reflector({4.6, 4.6}, deg_to_rad(225.0));
  reflector.front_end().steer_rx(
      scene.true_reflector_angle_to_ap(reflector));
  reflector.front_end().steer_tx(
      scene.true_reflector_angle_to_headset(reflector));
  std::mt19937_64 rng{5};
  core::GainController::run(reflector.front_end(),
                            scene.reflector_input(reflector), rng);
  scene.aim_direct();
  return scene;
}

/// Runs the canonical 10 s blocked session; when `recorder` is set the
/// link manager and session record into it.
vr::QoeReport run_faulted_session(Recorder* recorder) {
  core::Scene scene = logged_scene();
  sim::Simulator simulator;
  if (recorder != nullptr) {
    recorder->bind_clock(&simulator);
  }
  core::LinkManager::Config manager_config;
  manager_config.recorder = recorder;
  vr::MovrStrategy strategy{simulator, scene, std::mt19937_64{11},
                            manager_config};
  sim::FaultInjector injector{simulator};
  injector.inject(
      "hand_blockage", sim::TimePoint{2s}, 3s,
      [&scene] {
        scene.room().add_obstacle(channel::make_hand(
            scene.headset().node().position(),
            scene.ap().node().position() -
                scene.headset().node().position()));
      },
      [&scene] { scene.room().remove_obstacles("hand"); });
  vr::Session::Config config;
  config.duration = sim::from_seconds(10.0);
  config.faults = &injector;
  config.transport = net::TransportConfig{};
  config.recorder = recorder;
  vr::Session session{simulator, scene, strategy, nullptr, nullptr, config};
  return session.run();
}

TEST(LogRoundTrip, FaultedSessionVerifiesCleanAndIsByteStable) {
  Recorder::Config config;
  config.key = "round-trip";
  config.bench = "log_verify_test";
  config.seed = 11;
  Recorder first{config};
  const vr::QoeReport report = run_faulted_session(&first);
  first.close();
  EXPECT_GT(report.frames, 0u);

  const ParsedLog parsed = parse_log(first.buffer());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const VerifyReport verified = verify_log(parsed, "round-trip");
  EXPECT_TRUE(verified.ok());
  // The blockage forces real traffic through the hooks: handovers and the
  // per-20 ms transport snapshots must both be present.
  EXPECT_GT(verified.transport_snapshots, 0u);
  std::uint64_t handovers = 0;
  for (const ParsedRecord& record : parsed.records) {
    handovers += record.is(EventKind::kHandoverCommit) ? 1u : 0u;
  }
  EXPECT_GT(handovers, 0u);

  // Byte stability: an identical second run produces the identical log.
  Recorder second{config};
  run_faulted_session(&second);
  second.close();
  EXPECT_EQ(first.buffer(), second.buffer());
}

TEST(LogRoundTrip, RecordingIsInvisibleToTheSession) {
  Recorder recorder{{}};
  const vr::QoeReport logged = run_faulted_session(&recorder);
  recorder.close();
  const vr::QoeReport unlogged = run_faulted_session(nullptr);
  // Recording consumes no session RNG: every outcome field agrees.
  EXPECT_EQ(logged.frames, unlogged.frames);
  EXPECT_EQ(logged.glitched_frames, unlogged.glitched_frames);
  EXPECT_EQ(logged.stall_events, unlogged.stall_events);
  EXPECT_EQ(logged.longest_stall, unlogged.longest_stall);
  ASSERT_TRUE(logged.transport.has_value());
  ASSERT_TRUE(unlogged.transport.has_value());
  EXPECT_EQ(logged.transport->packets_delivered,
            unlogged.transport->packets_delivered);
  EXPECT_EQ(logged.transport->packets_dropped,
            unlogged.transport->packets_dropped);
  EXPECT_EQ(logged.transport->deadline_misses,
            unlogged.transport->deadline_misses);
}

TEST(LogDiff, IdenticalStreamsAgreeDivergentOnesDoNot) {
  const ParsedLog a = parse_log(small_log());
  EXPECT_TRUE(diff_logs(a, a).empty());
  Recorder other{{}};
  other.record_at(sim::TimePoint{20ms}, EventKind::kHandoverBegin,
                  {{"reflector", 1}, {"seq", 1}});
  other.record_at(sim::TimePoint{40ms}, EventKind::kHandoverAbort,
                  {{"reflector", 1}, {"reason", 2}});
  other.close();
  const std::vector<std::string> diffs =
      diff_logs(a, parse_log(other.buffer()));
  EXPECT_FALSE(diffs.empty());
}

}  // namespace
}  // namespace movr::log
