#include <log/recorder.hpp>

#include <charconv>
#include <cstdio>

#include <sim/rng.hpp>

namespace movr::log {

namespace {

constexpr std::string_view kChainTag = "movr-log-v1";

std::uint64_t fnv1a_bytes(std::string_view bytes, std::uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

/// Writes `value` as 16 zero-padded lowercase hex digits: the bytes of
/// printf's "%016" PRIx64, one nibble-table lookup per digit.
void write_hex16(char (&out)[16], std::uint64_t value) {
  constexpr char kDigits[] = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) {
    out[i] = kDigits[value & 0xf];
    value >>= 4;
  }
}

void append_hex16(std::string& out, std::uint64_t value) {
  char hex[16];
  write_hex16(hex, value);
  out.append(hex, sizeof hex);
}

/// Decimal, the bytes of printf's "%" PRId64; 20 chars hold INT64_MIN.
void append_i64(std::string& out, std::int64_t value) {
  char buf[20];
  const char* const end = std::to_chars(buf, buf + sizeof buf, value).ptr;
  out.append(buf, static_cast<std::size_t>(end - buf));
}

}  // namespace

std::uint64_t chain_seed(std::string_view key) {
  return fnv1a_bytes(key, fnv1a_bytes(kChainTag, kFnvOffset));
}

std::uint64_t chain_next(std::uint64_t prev, std::string_view canonical,
                         std::string_view key) {
  char prev_hex[16];
  write_hex16(prev_hex, prev);
  std::uint64_t link = fnv1a_bytes({prev_hex, sizeof prev_hex}, kFnvOffset);
  link = fnv1a_bytes("|", link);
  link = fnv1a_bytes(canonical, link);
  link = fnv1a_bytes(key, link);
  return link;
}

std::int64_t Recorder::name_hash(std::string_view name) {
  return static_cast<std::int64_t>(sim::fnv1a(name) & 0x7fffffffffffffffull);
}

Recorder::Recorder(Config config) : config_{std::move(config)} {
  chain_ = chain_seed(config_.key);
  buffer_.reserve(1 << 16);
  record_at(sim::TimePoint{}, EventKind::kLogOpen,
            {{"version", kFormatVersion},
             {"bench", name_hash(config_.bench)},
             {"seed", static_cast<std::int64_t>(config_.seed)},
             {"signed", config_.key.empty() ? 0 : 1}});
}

Recorder::~Recorder() { close(); }

void Recorder::record(EventKind kind,
                      std::initializer_list<EventField> fields) {
  append(clock_ != nullptr ? clock_->now() : sim::TimePoint{}, kind, fields);
}

void Recorder::record_at(sim::TimePoint at, EventKind kind,
                         std::initializer_list<EventField> fields) {
  append(at, kind, fields);
}

void Recorder::append(sim::TimePoint at, EventKind kind,
                      std::initializer_list<EventField> fields) {
  if (closed_) {
    return;  // a straggler event after close(): the contract is append-only
  }
  scratch_.clear();
  scratch_ += "t=";
  append_i64(scratch_, at.count() / 1000);  // microseconds
  scratch_ += " q=";
  append_i64(scratch_, static_cast<std::int64_t>(seq_));
  scratch_ += " k=";
  scratch_ += to_string(kind);
  for (const EventField& field : fields) {
    scratch_ += ' ';
    scratch_ += field.key;
    scratch_ += '=';
    append_i64(scratch_, field.value);
  }

  chain_ = chain_next(chain_, scratch_, config_.key);

  buffer_ += scratch_;
  buffer_ += " h=";
  append_hex16(buffer_, chain_);
  buffer_ += '\n';
  ++seq_;
}

void Recorder::close() {
  if (closed_) {
    return;
  }
  append(clock_ != nullptr ? clock_->now() : sim::TimePoint{},
         EventKind::kLogClose,
         {{"records", static_cast<std::int64_t>(seq_)}});
  closed_ = true;
  if (config_.path.empty()) {
    return;
  }
  std::FILE* f = std::fopen(config_.path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "log::Recorder: cannot open %s\n",
                 config_.path.c_str());
    return;
  }
  std::fwrite(buffer_.data(), 1, buffer_.size(), f);
  std::fclose(f);
}

}  // namespace movr::log
