// Parser for session event logs: text lines back into records.
//
// The reader is deliberately forgiving about *content* (unknown kinds and
// unknown fields parse fine — the contract allows forward-compatible
// additions) and strict about *grammar*: every line must match
//
//   t=<int64> q=<int64> k=<name> [<key>=<int64>...] h=<16 hex>
//
// Grammar errors surface as a ParseError naming the line, so the verifier
// can report malformed logs with the same first-bad-record precision it
// reports chain breaks with.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <log/event.hpp>

namespace movr::log {

/// One parsed payload field (owning — the source text may be gone).
struct ParsedField {
  std::string key;
  std::int64_t value{0};
};

/// One parsed record.
struct ParsedRecord {
  std::int64_t t_us{0};
  std::int64_t seq{0};
  /// Kind name as written; `kind` is nullopt for kinds this build does
  /// not know (forward compatibility — chain-checked, invariant-neutral).
  std::string kind_name;
  std::optional<EventKind> kind;
  std::vector<ParsedField> fields;
  /// The chain hash the record carries.
  std::uint64_t hash{0};
  /// The line without its trailing " h=..." — the chain's hash input.
  std::string canonical;
  /// 1-based source line number.
  std::size_t line{0};

  bool is(EventKind k) const { return kind.has_value() && *kind == k; }
  /// Field lookup; `fallback` when absent.
  std::int64_t field(std::string_view key, std::int64_t fallback = 0) const;
};

struct ParsedLog {
  std::vector<ParsedRecord> records;
  /// Empty when the whole file parsed; otherwise "line N: why".
  std::string error;
  bool ok() const { return error.empty(); }
};

/// Parses a whole log text (the file's bytes).
ParsedLog parse_log(std::string_view text);

/// Reads and parses a log file; error is set on open failure too.
ParsedLog parse_log_file(const std::string& path);

}  // namespace movr::log
