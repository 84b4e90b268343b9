// Verification of session event logs: chain integrity first, then the
// chaos-soak and arena safety invariants replayed from the records alone —
// zero simulator re-execution. This is the only implementation of
// invariants A-G: bench/chaos_soak and bench/arena_chaos record every run
// into an in-memory Recorder and gate on verify_log over its bytes, and
// tools/log_verify runs the same pass over files.
//
// The chain pass is strict and fail-fast: the first record whose seq does
// not advance by exactly one (a drop or a reorder), or whose chain hash
// does not recompute (an edit), names itself and stops the pass — exactly
// the "detectable at the first bad record" property the recorder's chain
// rule promises. A log whose last record is not log_close is truncated.
//
// The invariant pass is driven by the per-tick snapshot records. A, C and
// F report once per reflector per episode (a partition, a divergence, a
// quarantine) and B once per oscillation bound of sustained instability,
// not once per snapshot:
//
//   A  snapshot_control carries the partition flag; once a partition's age
//      exceeds the grace bound, every snapshot_reflector must show
//      gain <= safe_code.
//   B  a reflector's `stable` flag may drop, but not for longer than the
//      oscillation bound.
//   C  any snapshot_reflector with plane_part=0 and div_age_us over the
//      divergence bound is an unreconciled divergence.
//   D  every snapshot_control ledger must close (sent == delivered +
//      dropped + undeliv + in_flight); every snapshot_transport must close
//      (enqueued == delivered + dropped + recovered + spec_dup +
//      in_flight).
//   E  every search_launch pairs with a search_done inside the watchdog
//      budget plus one snapshot tick of grace (the soak's former live
//      watcher had no such grace; the tick absorbs snapshot
//      quantisation), failures carry a reason, and nothing is left
//      running at log_close.
//   F  lease liveness (arena-coordinator logs, i.e. params carries
//      revoke_grace_us): no snapshot_lease may show a lease held on a
//      quarantined reflector beyond the revocation grace — the proof
//      that lease failover actually ran, from the bytes alone.
//   G  predictive-tier pairing: risk windows open/close alternately and
//      speculative arming only happens inside an open risk window (a
//      window or armed probe cut off by log_close is tolerated).
//
// Bounds come from the log's own params record, so logs are
// self-describing; logs without params (e.g. arena per-user streams) get
// the chain + ledger-closure + pairing checks only. Every number is
// untrusted: the reader rejects values outside int64, and the pass
// saturates its time arithmetic and treats a ledger sum past int64 as
// open.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <log/reader.hpp>

namespace movr::log {

struct Issue {
  std::int64_t seq{-1};
  std::int64_t t_us{0};
  std::string what;
};

struct VerifyReport {
  /// Chain/grammar/truncation problems; fail-fast, so at most one entry
  /// plus a possible truncation note.
  std::vector<Issue> chain_issues;
  /// Invariant violations replayed from the records (chain must be clean).
  std::vector<Issue> invariant_issues;
  std::size_t records{0};
  std::uint64_t control_snapshots{0};
  std::uint64_t reflector_snapshots{0};
  std::uint64_t transport_snapshots{0};
  std::uint64_t searches{0};
  std::uint64_t lease_snapshots{0};
  std::uint64_t risk_windows{0};
  std::uint64_t spec_arms{0};
  bool has_params{false};
  bool ok() const { return chain_issues.empty() && invariant_issues.empty(); }
};

/// Full verification: chain pass, then (if the chain held) the invariant
/// pass. `key` must match the recording key, or the chain breaks at seq 0.
VerifyReport verify_log(const ParsedLog& log, std::string_view key);

/// Event-stream diff for regression forensics: compares the two logs'
/// non-snapshot event sequences (kind + payload, ignoring seq/time/hash)
/// and returns human-readable differences — empty means the streams agree.
std::vector<std::string> diff_logs(const ParsedLog& a, const ParsedLog& b);

}  // namespace movr::log
