#include <log/reader.hpp>

#include <cstdio>
#include <limits>
#include <type_traits>
#include <unordered_map>

namespace movr::log {

namespace {

/// Name -> kind for every kind this build knows, in one hash lookup. The
/// table is built from `to_string` over every value of the enum's
/// underlying type, so the enum and its names (tied by -Wswitch) are the
/// only list: a kind `to_string` names cannot parse as unknown.
std::optional<EventKind> kind_from_name(std::string_view name) {
  static const std::unordered_map<std::string_view, EventKind> kByName = [] {
    using Underlying = std::underlying_type_t<EventKind>;
    std::unordered_map<std::string_view, EventKind> by_name;
    for (unsigned v = 0; v <= std::numeric_limits<Underlying>::max(); ++v) {
      const auto kind = static_cast<EventKind>(v);
      if (to_string(kind) != "unknown") {
        by_name.emplace(to_string(kind), kind);
      }
    }
    return by_name;
  }();
  const auto it = kByName.find(name);
  if (it == kByName.end()) {
    return std::nullopt;
  }
  return it->second;
}

/// Payload fields reserved per record, so a record's fields land without a
/// reallocation per field: the busiest kinds written today (`params`,
/// `snapshot_reflector`, `snapshot_transport`) carry 7.
constexpr std::size_t kFieldsReserved = 8;

/// Strict decimal int64: rejects anything outside [INT64_MIN, INT64_MAX]
/// instead of wrapping it.
bool parse_i64(std::string_view text, std::int64_t& out) {
  if (text.empty()) {
    return false;
  }
  bool negative = false;
  std::size_t i = 0;
  if (text[0] == '-') {
    negative = true;
    i = 1;
    if (text.size() == 1) {
      return false;
    }
  }
  const std::uint64_t limit =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) +
      (negative ? 1U : 0U);
  std::uint64_t magnitude = 0;
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (c < '0' || c > '9') {
      return false;
    }
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (magnitude > (limit - digit) / 10) {
      return false;
    }
    magnitude = magnitude * 10 + digit;
  }
  // Negate in unsigned arithmetic: -2^63 has no positive int64 twin.
  out = static_cast<std::int64_t>(negative ? 0 - magnitude : magnitude);
  return true;
}

bool parse_hex16(std::string_view text, std::uint64_t& out) {
  if (text.size() != 16) {
    return false;
  }
  std::uint64_t value = 0;
  for (const char c : text) {
    std::uint64_t nibble = 0;
    if (c >= '0' && c <= '9') {
      nibble = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<std::uint64_t>(c - 'a') + 10;
    } else {
      return false;
    }
    value = (value << 4) | nibble;
  }
  out = value;
  return true;
}

/// Splits `line` into whitespace-free key=value tokens.
bool next_token(std::string_view& rest, std::string_view& key,
                std::string_view& value) {
  while (!rest.empty() && rest.front() == ' ') {
    rest.remove_prefix(1);
  }
  if (rest.empty()) {
    return false;
  }
  const std::size_t end = rest.find(' ');
  const std::string_view token =
      rest.substr(0, end == std::string_view::npos ? rest.size() : end);
  rest.remove_prefix(token.size());
  const std::size_t eq = token.find('=');
  if (eq == std::string_view::npos || eq == 0 || eq + 1 >= token.size()) {
    key = token;
    value = {};
    return true;  // caller rejects: every token must be key=value
  }
  key = token.substr(0, eq);
  value = token.substr(eq + 1);
  return true;
}

std::string line_error(std::size_t line, const char* what) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "line %zu: %s", line, what);
  return buf;
}

}  // namespace

std::int64_t ParsedRecord::field(std::string_view key,
                                 std::int64_t fallback) const {
  for (const ParsedField& f : fields) {
    if (f.key == key) {
      return f.value;
    }
  }
  return fallback;
}

ParsedLog parse_log(std::string_view text) {
  ParsedLog log;
  std::size_t line_no = 0;
  while (!text.empty()) {
    ++line_no;
    const std::size_t nl = text.find('\n');
    std::string_view line =
        text.substr(0, nl == std::string_view::npos ? text.size() : nl);
    text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
    if (line.empty()) {
      if (text.empty()) {
        break;  // trailing newline
      }
      log.error = line_error(line_no, "empty record line");
      return log;
    }

    ParsedRecord record;
    record.line = line_no;

    // The chain hash must be the final token.
    const std::size_t hpos = line.rfind(" h=");
    if (hpos == std::string_view::npos ||
        !parse_hex16(line.substr(hpos + 3), record.hash)) {
      log.error = line_error(line_no, "missing or malformed h= chain hash");
      return log;
    }
    record.canonical = std::string{line.substr(0, hpos)};
    record.fields.reserve(kFieldsReserved);

    std::string_view rest{record.canonical};
    std::string_view key;
    std::string_view value;
    int position = 0;
    bool bad = false;
    while (next_token(rest, key, value)) {
      if (value.empty()) {
        bad = true;
        break;
      }
      ++position;
      if (position == 1) {
        bad = key != "t" || !parse_i64(value, record.t_us);
      } else if (position == 2) {
        bad = key != "q" || !parse_i64(value, record.seq);
      } else if (position == 3) {
        bad = key != "k";
        record.kind_name = std::string{value};
        record.kind = kind_from_name(value);
      } else {
        ParsedField& field = record.fields.emplace_back();
        field.key = key;
        bad = !parse_i64(value, field.value);
      }
      if (bad) {
        break;
      }
    }
    if (bad || position < 3) {
      log.error = line_error(line_no, "malformed record (want t= q= k= ...)");
      return log;
    }
    log.records.push_back(std::move(record));
  }
  return log;
}

ParsedLog parse_log_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    ParsedLog log;
    log.error = "cannot open " + path;
    return log;
  }
  std::string text;
  char chunk[1 << 14];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof chunk, f)) > 0) {
    text.append(chunk, got);
  }
  std::fclose(f);
  return parse_log(text);
}

}  // namespace movr::log
