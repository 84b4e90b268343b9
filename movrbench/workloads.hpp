// The benchmark's three workloads, each built only from the library's
// public API. A workload's inputs are a pure function of the seed; one
// call runs one unit of work (set-up plus the measured work) and returns
// its wall times, its deterministic outputs and its correctness checks.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <net/stats.hpp>

namespace movrbench {

enum class Workload {
  /// One arena::Coordinator cell: 32 users, 4 corner APs, 4 wall
  /// reflectors, priority-aging leases, 300 Mbps transport, 1 thread.
  kArenaDense,
  /// One MoVR user in the 5x5 m office under control-plane chaos, with a
  /// Gilbert-Elliott burst channel, adaptive FEC at 800 Mbps and a signed
  /// event log that is verified offline after the run.
  kSessionChaos,
  /// PlacementPlanner::plan for the 8x8 m arena room, then
  /// compute_coverage of the planned deployment, multi-threaded.
  kPlanRoom,
};

/// kTiny shrinks every workload to a smoke-test size.
enum class Size { kFull, kTiny };

bool parse_workload(std::string_view name, Workload& out);
const char* workload_name(Workload workload);

/// Correctness checks of one run: every check counts as attempted, and
/// the first few failures keep their description.
struct Checks {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what);
  /// `checked` checks of one kind, `bad` of which failed.
  void expect_all(std::uint64_t checked, std::uint64_t bad,
                  const std::string& what);
};

struct Unit {
  /// Wall seconds: building scenes, calibrating and constructing the
  /// coordinator / session / deployment.
  double setup_s{0.0};
  /// Wall seconds of the measured work (simulation, or plan + coverage).
  double work_s{0.0};
  /// Simulated user-seconds the work covered (0 for plan_room).
  double user_sim_s{0.0};
  /// Digest of every deterministic output of the unit.
  std::uint64_t fingerprint{0};

  // Deterministic outputs.
  std::uint64_t frames{0};
  std::uint64_t glitched_frames{0};
  /// Transport latency histograms pooled over users; frames emitted but
  /// never completed count as +inf.
  movr::net::LatencyHistogram latency;
  std::uint64_t frames_emitted{0};
  /// Final outage fraction of the plan (plan_room only).
  double outage{0.0};

  // Counters the program keeps itself (reported by the traced run).
  std::uint64_t sim_events{0};
  std::uint64_t log_records{0};
  std::uint64_t log_bytes{0};
  double log_verify_s{0.0};
  std::uint64_t admission_evictions{0};
  std::uint64_t handovers_ok{0};
  std::uint64_t handovers_failed{0};
  std::uint64_t packets_enqueued{0};
  std::uint64_t retransmits{0};
  std::uint64_t packets_recovered{0};
};

/// Runs one unit of `workload`. `threads` applies to plan_room only.
Unit run_unit(Workload workload, std::uint64_t seed, Size size,
              unsigned threads, Checks& checks);

}  // namespace movrbench
