#include <log/verify.hpp>

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>

#include <log/recorder.hpp>

namespace movr::log {

namespace {

std::string i64_str(std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  return buf;
}

Issue issue_at(const ParsedRecord& record, std::string what) {
  return {record.seq, record.t_us, std::move(what)};
}

// Every value below comes from untrusted bytes, so bound and time
// arithmetic saturates at the int64 range instead of overflowing.
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();

std::int64_t sat_add(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  if (__builtin_add_overflow(a, b, &out)) {
    return a > 0 ? kMax : kMin;
  }
  return out;
}

/// Elapsed time `later - earlier`, saturated.
std::int64_t sat_sub(std::int64_t later, std::int64_t earlier) {
  std::int64_t out = 0;
  if (__builtin_sub_overflow(later, earlier, &out)) {
    return earlier < 0 ? kMax : kMin;
  }
  return out;
}

/// Exact sum of a ledger's closing buckets; nullopt when it leaves the
/// int64 range, which no real ledger reaches (so it cannot close).
std::optional<std::int64_t> ledger_sum(
    std::initializer_list<std::int64_t> buckets) {
  std::int64_t sum = 0;
  for (const std::int64_t bucket : buckets) {
    if (__builtin_add_overflow(sum, bucket, &sum)) {
      return std::nullopt;
    }
  }
  return sum;
}

std::string ledger_str(const std::optional<std::int64_t>& sum) {
  return sum.has_value() ? i64_str(*sum) : "out of int64 range";
}

/// Soak-invariant bounds, read from the log's params record.
struct Params {
  std::int64_t grace_us{0};
  std::int64_t osc_us{0};
  std::int64_t div_us{0};
  std::int64_t watchdog_us{0};
  std::int64_t slack_us{0};
  std::int64_t tick_us{0};
  /// Arena lease-liveness bound (invariant F); 0 = not an arena log.
  std::int64_t revoke_grace_us{0};
};

/// Per-reflector watcher state (invariants A/B/C).
struct ReflectorWatch {
  bool unstable{false};
  std::int64_t unstable_since_us{0};
  bool floor_reported{false};
  bool divergence_reported{false};
};

struct SearchWatch {
  std::int64_t launched_us{0};
  std::int64_t launch_seq{0};
  bool done{false};
};

/// Per-reflector lease-liveness state (invariant F): a snapshot_lease
/// stream must never show a lease surviving on a quarantined device past
/// the revocation grace.
struct LeaseWatch {
  bool held_quarantined{false};
  std::int64_t since_us{0};
  bool reported{false};
};

/// One event rendered for the diff: kind plus payload, no seq/time/hash.
std::string diff_key(const ParsedRecord& record) {
  std::string out{record.kind_name};
  for (const ParsedField& f : record.fields) {
    out += ' ';
    out += f.key;
    out += '=';
    out += i64_str(f.value);
  }
  return out;
}

bool diff_relevant(const ParsedRecord& record) {
  if (record.kind_name.rfind("snapshot_", 0) == 0) {
    return false;  // per-tick counters differ whenever timing does
  }
  return record.kind_name != "coord_tick" && record.kind_name != "log_close";
}

}  // namespace

VerifyReport verify_log(const ParsedLog& log, std::string_view key) {
  VerifyReport report;
  report.records = log.records.size();

  // --- pass 1: grammar + chain, fail-fast at the first bad record -------
  if (!log.ok()) {
    report.chain_issues.push_back({-1, 0, "parse error: " + log.error});
    return report;
  }
  if (log.records.empty()) {
    report.chain_issues.push_back({-1, 0, "empty log"});
    return report;
  }
  std::uint64_t chain = chain_seed(key);
  for (std::size_t i = 0; i < log.records.size(); ++i) {
    const ParsedRecord& record = log.records[i];
    if (record.seq != static_cast<std::int64_t>(i)) {
      report.chain_issues.push_back(issue_at(
          record, "sequence break: expected seq " + i64_str(
                      static_cast<std::int64_t>(i)) +
                      ", found seq " + i64_str(record.seq) +
                      " (record dropped or reordered)"));
      return report;
    }
    chain = chain_next(chain, record.canonical, key);
    if (chain != record.hash) {
      report.chain_issues.push_back(issue_at(
          record,
          "chain hash mismatch (record tampered, or wrong signing key)"));
      return report;
    }
  }
  const ParsedRecord& first = log.records.front();
  if (!first.is(EventKind::kLogOpen)) {
    report.chain_issues.push_back(
        issue_at(first, "first record is not log_open"));
    return report;
  }
  if (first.field("version") > kFormatVersion) {
    report.chain_issues.push_back(issue_at(
        first, "log format version " + i64_str(first.field("version")) +
                   " is newer than this verifier (" +
                   i64_str(kFormatVersion) + ")"));
    return report;
  }
  if (!log.records.back().is(EventKind::kLogClose)) {
    report.chain_issues.push_back(
        issue_at(log.records.back(),
                 "truncated: last record is not log_close"));
    return report;
  }

  // --- pass 2: invariants replayed from the records ---------------------
  Params params;
  bool partitioned = false;
  std::int64_t partition_since_us = 0;
  // Keyed by the records' own reflector index, which is untrusted: a map
  // never sizes anything from it.
  std::map<std::int64_t, ReflectorWatch> reflectors;
  std::map<std::int64_t, LeaseWatch> leases;
  std::map<std::int64_t, SearchWatch> searches;
  bool risk_open = false;
  bool spec_armed = false;
  const auto violate = [&](const ParsedRecord& record, std::string what) {
    report.invariant_issues.push_back(issue_at(record, std::move(what)));
  };

  for (const ParsedRecord& record : log.records) {
    if (!record.kind.has_value()) {
      continue;  // forward compatibility: unknown kinds are opaque
    }
    switch (*record.kind) {
      case EventKind::kParams: {
        params.grace_us = record.field("grace_us");
        params.osc_us = record.field("osc_us");
        params.div_us = record.field("div_us");
        params.watchdog_us = record.field("watchdog_us");
        params.slack_us = record.field("slack_us");
        params.tick_us = record.field("tick_us");
        params.revoke_grace_us = record.field("revoke_grace_us");
        report.has_params = true;
        break;
      }
      case EventKind::kSnapshotControl: {
        ++report.control_snapshots;
        // D: the control-channel ledger closes on every tick.
        const std::int64_t sent = record.field("sent");
        const std::optional<std::int64_t> closed =
            ledger_sum({record.field("delivered"), record.field("dropped"),
                        record.field("undeliv"), record.field("in_flight")});
        if (closed != sent) {
          violate(record, "invariant D: control ledger open (sent " +
                              i64_str(sent) + " != closed " +
                              ledger_str(closed) + ")");
        }
        // A's clock: partition episodes are tracked from the control flag.
        if (record.field("part") != 0) {
          if (!partitioned) {
            partitioned = true;
            partition_since_us = record.t_us;
          }
        } else {
          partitioned = false;
          for (auto& entry : reflectors) {
            entry.second.floor_reported = false;
          }
        }
        break;
      }
      case EventKind::kSnapshotReflector: {
        ++report.reflector_snapshots;
        if (!report.has_params) {
          break;  // no bounds: chain + ledger checks only
        }
        ReflectorWatch& w = reflectors[record.field("r")];
        // A: partition outlasting the grace => gain at/below the floor.
        if (partitioned &&
            sat_sub(record.t_us, partition_since_us) > params.grace_us &&
            record.field("gain") > record.field("safe_code") &&
            !w.floor_reported) {
          w.floor_reported = true;
          violate(record,
                  "invariant A: reflector " + i64_str(record.field("r")) +
                      " gain code " + i64_str(record.field("gain")) +
                      " above safe floor " +
                      i64_str(record.field("safe_code")) +
                      " during a partition older than the grace bound");
        }
        // B: instability must not be sustained.
        if (record.field("stable") == 0) {
          if (!w.unstable) {
            w.unstable = true;
            w.unstable_since_us = record.t_us;
          }
          if (sat_sub(record.t_us, w.unstable_since_us) > params.osc_us) {
            violate(record,
                    "invariant B: reflector " + i64_str(record.field("r")) +
                        " oscillating for more than " +
                        i64_str(params.osc_us) + " us");
            w.unstable_since_us = record.t_us;  // rate-limit repeats
          }
        } else {
          w.unstable = false;
        }
        // C: divergence reconciled within the bound (partitioned excluded).
        if (record.field("plane_part") == 0 &&
            record.field("div_age_us") > params.div_us) {
          if (!w.divergence_reported) {
            w.divergence_reported = true;
            violate(record,
                    "invariant C: reflector " + i64_str(record.field("r")) +
                        " divergence age " +
                        i64_str(record.field("div_age_us")) +
                        " us over the reconciliation bound " +
                        i64_str(params.div_us) + " us");
          }
        } else if (record.field("div_age_us") == 0) {
          w.divergence_reported = false;
        }
        break;
      }
      case EventKind::kSnapshotTransport: {
        ++report.transport_snapshots;
        // D: the transport packet ledger closes.
        const std::int64_t enq = record.field("enqueued");
        const std::optional<std::int64_t> closed = ledger_sum(
            {record.field("delivered"), record.field("dropped"),
             record.field("recovered"), record.field("spec_dup"),
             record.field("in_flight")});
        if (closed != enq) {
          violate(record, "invariant D: transport ledger open (enqueued " +
                              i64_str(enq) + " != closed " +
                              ledger_str(closed) + ")");
        }
        break;
      }
      case EventKind::kSearchLaunch: {
        ++report.searches;
        SearchWatch watch;
        watch.launched_us = record.t_us;
        watch.launch_seq = record.seq;
        searches[record.field("id")] = watch;
        break;
      }
      case EventKind::kSearchDone: {
        auto it = searches.find(record.field("id"));
        if (it == searches.end()) {
          violate(record, "invariant E: search_done for search " +
                              i64_str(record.field("id")) +
                              " that never launched");
          break;
        }
        it->second.done = true;
        if (report.has_params) {
          const std::int64_t bound = sat_add(
              sat_add(params.watchdog_us, params.slack_us), params.tick_us);
          const std::int64_t took =
              sat_sub(record.t_us, it->second.launched_us);
          if (took > bound) {
            violate(record, "invariant E: search " +
                                i64_str(record.field("id")) + " took " +
                                i64_str(took) + " us, past its watchdog (" +
                                i64_str(bound) + " us)");
          }
        }
        if (record.field("completed") == 0 &&
            record.field("reason_h") == 0) {
          violate(record, "invariant E: search " +
                              i64_str(record.field("id")) +
                              " failed without a reason");
        }
        break;
      }
      case EventKind::kSnapshotLease: {
        ++report.lease_snapshots;
        if (!report.has_params || params.revoke_grace_us <= 0) {
          break;  // not an arena-coordinator log: no liveness bound
        }
        LeaseWatch& w = leases[record.field("r")];
        // F: a quarantined device must shed its lease within the
        // revocation grace — a holder surviving past it means failover
        // never ran (or the watchdog lost the orphan).
        const bool held_quarantined =
            record.field("quar") != 0 && record.field("holder") >= 0;
        if (held_quarantined) {
          if (!w.held_quarantined) {
            w.held_quarantined = true;
            w.since_us = record.t_us;
          }
          const std::int64_t held_us = sat_sub(record.t_us, w.since_us);
          if (held_us > params.revoke_grace_us && !w.reported) {
            w.reported = true;
            violate(record,
                    "invariant F: reflector " + i64_str(record.field("r")) +
                        " still leased to user " +
                        i64_str(record.field("holder")) +
                        " while quarantined for " + i64_str(held_us) +
                        " us, past the revocation grace (" +
                        i64_str(params.revoke_grace_us) + " us)");
          }
        } else {
          w.held_quarantined = false;
          w.reported = false;
        }
        break;
      }
      case EventKind::kRiskWindowOpen: {
        ++report.risk_windows;
        // G: the predictive tier's decisions must pair up — merged risk
        // windows open once and close once.
        if (risk_open) {
          violate(record,
                  "invariant G: risk window opened while one is open");
        }
        risk_open = true;
        break;
      }
      case EventKind::kRiskWindowClose: {
        if (!risk_open) {
          violate(record, "invariant G: risk window closed that never "
                          "opened");
        }
        if (spec_armed) {
          violate(record, "invariant G: speculation still armed at risk "
                          "window close");
        }
        risk_open = false;
        break;
      }
      case EventKind::kSpecArm: {
        ++report.spec_arms;
        if (spec_armed) {
          violate(record, "invariant G: speculative probing armed twice");
        }
        if (!risk_open) {
          violate(record, "invariant G: speculative probing armed outside "
                          "a risk window");
        }
        spec_armed = true;
        break;
      }
      case EventKind::kSpecDisarm: {
        if (!spec_armed) {
          violate(record,
                  "invariant G: speculative probing disarmed while unarmed");
        }
        spec_armed = false;
        break;
      }
      case EventKind::kLogClose: {
        // A risk window (or armed speculation) still open here is fine:
        // the session ended mid-window and the recorder sealed the log.
        for (const auto& [id, watch] : searches) {
          if (!watch.done) {
            violate(record, "invariant E: search " + i64_str(id) +
                                " (launched seq " +
                                i64_str(watch.launch_seq) +
                                ") never terminated");
          }
        }
        break;
      }
      default:
        break;
    }
  }
  return report;
}

std::vector<std::string> diff_logs(const ParsedLog& a, const ParsedLog& b) {
  std::vector<std::string> out;
  if (!a.ok()) {
    out.push_back("log A unparseable: " + a.error);
  }
  if (!b.ok()) {
    out.push_back("log B unparseable: " + b.error);
  }
  if (!out.empty()) {
    return out;
  }

  std::vector<const ParsedRecord*> ea;
  std::vector<const ParsedRecord*> eb;
  for (const ParsedRecord& r : a.records) {
    if (diff_relevant(r)) {
      ea.push_back(&r);
    }
  }
  for (const ParsedRecord& r : b.records) {
    if (diff_relevant(r)) {
      eb.push_back(&r);
    }
  }

  constexpr std::size_t kMaxListed = 10;
  const std::size_t common = std::min(ea.size(), eb.size());
  std::size_t listed = 0;
  for (std::size_t i = 0; i < common && listed < kMaxListed; ++i) {
    const std::string ka = diff_key(*ea[i]);
    const std::string kb = diff_key(*eb[i]);
    if (ka != kb) {
      out.push_back("event " + i64_str(static_cast<std::int64_t>(i)) +
                    ": A{" + ka + "} vs B{" + kb + "}");
      ++listed;
    }
  }
  if (ea.size() != eb.size()) {
    out.push_back("event counts differ: A has " +
                  i64_str(static_cast<std::int64_t>(ea.size())) +
                  " events, B has " +
                  i64_str(static_cast<std::int64_t>(eb.size())));
  }

  // Per-kind count deltas give the forensic headline.
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> kinds;
  for (const ParsedRecord* r : ea) {
    ++kinds[r->kind_name].first;
  }
  for (const ParsedRecord* r : eb) {
    ++kinds[r->kind_name].second;
  }
  for (const auto& [kind, counts] : kinds) {
    if (counts.first != counts.second) {
      out.push_back("kind " + kind + ": A " + i64_str(counts.first) +
                    " vs B " + i64_str(counts.second));
    }
  }
  return out;
}

}  // namespace movr::log
