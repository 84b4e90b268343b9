// The log's bytes, pinned against printf: the recorder must write every
// integer exactly as "%" PRId64 and every chain hash exactly as
// "%016" PRIx64 (the chain rule hashes that hex too), and the reader must
// resolve every kind `to_string` names, and nothing else, back to its enum.
#include <log/reader.hpp>
#include <log/recorder.hpp>

#include <gtest/gtest.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace movr::log {
namespace {

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

/// Every kind `to_string` names, over every value of the enum's
/// underlying type.
std::vector<EventKind> named_kinds() {
  using Underlying = std::underlying_type_t<EventKind>;
  std::vector<EventKind> kinds;
  for (unsigned v = 0; v <= std::numeric_limits<Underlying>::max(); ++v) {
    const auto kind = static_cast<EventKind>(v);
    if (to_string(kind) != "unknown") {
      kinds.push_back(kind);
    }
  }
  return kinds;
}

std::string dec(std::int64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRId64, value);
  return buf;
}

std::string hex16(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
  return buf;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// h_i of recorder.hpp's chain rule, over printf's hex of h_{i-1}.
std::uint64_t reference_link(std::uint64_t prev, const std::string& canonical,
                             const std::string& key) {
  return fnv1a(hex16(prev) + "|" + canonical + key);
}

/// The log text the recorder must produce, built line by line with printf.
struct ReferenceLog {
  explicit ReferenceLog(std::string signing_key)
      : key{std::move(signing_key)}, chain{fnv1a("movr-log-v1" + key)} {}

  std::string key;
  std::uint64_t chain;  // h_0 = H(tag || key)
  std::int64_t seq{0};
  std::string text;

  void add(std::int64_t t_us, EventKind kind,
           std::initializer_list<EventField> fields) {
    std::string canonical = "t=" + dec(t_us) + " q=" + dec(seq) +
                            " k=" + std::string{to_string(kind)};
    for (const EventField& field : fields) {
      canonical += " " + std::string{field.key} + "=" + dec(field.value);
    }
    chain = reference_link(chain, canonical, key);
    text += canonical + " h=" + hex16(chain) + "\n";
    ++seq;
  }
};

TEST(LogFormat, RecorderBytesMatchPrintfForEveryKind) {
  Recorder::Config config;
  config.key = "pin-key";
  config.bench = "log_format";
  config.seed = 42;
  Recorder recorder{config};
  ReferenceLog reference{config.key};
  reference.add(0, EventKind::kLogOpen,
                {{"version", kFormatVersion},
                 {"bench", Recorder::name_hash(config.bench)},
                 {"seed", 42},
                 {"signed", 1}});

  const std::int64_t name_h = Recorder::name_hash("reflector_reboot");
  ASSERT_GE(name_h, 0);
  const std::initializer_list<EventField> fields = {
      {"min", kMin}, {"max", kMax}, {"neg", -1},         {"zero", 0},
      {"nine", 9},   {"ten", 10},   {"name_h", name_h}};
  std::int64_t t_us = 0;
  for (const EventKind kind : named_kinds()) {
    recorder.record_at(std::chrono::microseconds{t_us}, kind, fields);
    reference.add(t_us, kind, fields);
    // 0, 9, 99, ... up to 15 nines (the most that fit in int64 ns), again.
    t_us = t_us >= 99'999'999'999'999 ? 0 : t_us * 10 + 9;
  }
  recorder.close();
  reference.add(0, EventKind::kLogClose, {{"records", reference.seq}});

  EXPECT_EQ(recorder.buffer(), reference.text);
  EXPECT_EQ(recorder.chain(), reference.chain);

  // And the extremes read back exactly.
  const ParsedLog parsed = parse_log(recorder.buffer());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(parsed.records.size(), named_kinds().size() + 2);
  const ParsedRecord& record = parsed.records[1];
  EXPECT_EQ(record.field("min"), kMin);
  EXPECT_EQ(record.field("max"), kMax);
  EXPECT_EQ(record.field("neg"), -1);
  EXPECT_EQ(record.field("ten"), 10);
  EXPECT_EQ(record.field("name_h"), name_h);
}

TEST(LogFormat, ChainHashesTheZeroPaddedLowercaseHex) {
  const std::string canonical = "t=20000 q=1 k=handover_begin reflector=0";
  for (const std::uint64_t prev :
       {0xabcull, 0ull, 0x0123456789abcdefull, ~0ull}) {
    for (const std::string key : {"", "session-key"}) {
      EXPECT_EQ(chain_next(prev, canonical, key),
                reference_link(prev, canonical, key))
          << "prev " << hex16(prev) << ", key '" << key << "'";
    }
  }
  EXPECT_EQ(chain_seed("session-key"), fnv1a("movr-log-v1session-key"));
}

TEST(LogFormat, EveryNamedKindParsesBackToItself) {
  std::set<std::string_view> names;
  for (const EventKind kind : named_kinds()) {
    const std::string_view name = to_string(kind);
    EXPECT_TRUE(names.insert(name).second) << "duplicate kind name " << name;
    const ParsedLog parsed =
        parse_log("t=0 q=0 k=" + std::string{name} + " h=0000000000000000\n");
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    ASSERT_EQ(parsed.records.size(), 1u);
    EXPECT_EQ(parsed.records[0].kind, kind) << name;
    EXPECT_EQ(parsed.records[0].kind_name, name);
  }
  EXPECT_GE(names.size(), static_cast<std::size_t>(EventKind::kLogClose) + 1);
}

TEST(LogFormat, NearMissNamesParseAsUnknownKinds) {
  for (const std::string name :
       {"lease_den", "log_close_", "LOG_OPEN", "unknown"}) {
    const ParsedLog parsed =
        parse_log("t=5 q=0 k=" + name + " x=1 h=0000000000000000\n");
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    ASSERT_EQ(parsed.records.size(), 1u);
    EXPECT_FALSE(parsed.records[0].kind.has_value()) << name;
    EXPECT_EQ(parsed.records[0].kind_name, name);
    EXPECT_EQ(parsed.records[0].field("x"), 1);
  }
}

}  // namespace
}  // namespace movr::log
