// Benchmark driver: runs units of one workload until the time budget is
// spent and prints one JSON object on stdout (run.py turns it into the
// benchmark's metrics). The same source builds the timing driver
// (movrbench) and the traced driver (movrbench_traced); see trace.hpp.
//
//   movrbench --workload arena_dense|session_chaos|plan_room --seed N
//             --seconds S [--threads N] [--size full|tiny] [--min-units K]
//
// Exit status: 0 when every correctness check passed, 1 when one failed,
// 2 on bad arguments, 3 when the build is unfit for timing (unoptimized
// or sanitized).
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

using movrbench::Unit;

#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

/// Minimal JSON writer for one flat-ish object on one line.
class JsonOut {
 public:
  JsonOut& key(const char* k) {
    sep();
    quoted(k);
    text_ += ':';
    fresh_ = true;
    return *this;
  }
  JsonOut& num(double v) {
    sep();
    if (!std::isfinite(v)) {
      text_ += "null";
    } else {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.10g", v);
      text_ += buf;
    }
    return *this;
  }
  JsonOut& num(std::uint64_t v) {
    sep();
    text_ += std::to_string(v);
    return *this;
  }
  JsonOut& boolean(bool v) {
    sep();
    text_ += v ? "true" : "false";
    return *this;
  }
  JsonOut& str(const std::string& s) {
    sep();
    quoted(s);
    return *this;
  }
  JsonOut& open(char c) {
    sep();
    text_ += c;
    fresh_ = true;
    return *this;
  }
  JsonOut& close(char c) {
    text_ += c;
    fresh_ = false;
    return *this;
  }
  const std::string& text() const { return text_; }

 private:
  void sep() {
    if (!fresh_ && !text_.empty()) {
      text_ += ',';
    }
    fresh_ = false;
  }
  void quoted(const std::string& s) {
    text_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        text_ += '\\';
        text_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        text_ += ' ';
      } else {
        text_ += c;
      }
    }
    text_ += '"';
  }

  std::string text_;
  bool fresh_{true};
};

/// Peak resident set of this process image (VmHWM), KiB. Unlike
/// getrusage's ru_maxrss it does not inherit the high-water mark of the
/// process that exec'd us.
std::uint64_t peak_rss_kb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: movrbench --workload arena_dense|session_chaos|"
               "plan_room --seed N --seconds S [--threads N] "
               "[--size full|tiny] [--min-units K]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  movrbench::Workload workload{};
  bool have_workload = false;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  unsigned threads = 1;
  std::size_t min_units = 2;
  movrbench::Size size = movrbench::Size::kFull;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--workload") == 0 && has_value) {
      have_workload = movrbench::parse_workload(argv[++i], workload);
    } else if (std::strcmp(argv[i], "--seed") == 0 && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0 && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--threads") == 0 && has_value) {
      threads = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--min-units") == 0 && has_value) {
      min_units = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--size") == 0 && has_value) {
      const std::string s = argv[++i];
      if (s != "full" && s != "tiny") {
        return usage();
      }
      size = s == "tiny" ? movrbench::Size::kTiny : movrbench::Size::kFull;
    } else {
      return usage();
    }
  }
  if (!have_workload || threads == 0 || min_units == 0) {
    return usage();
  }
  if (!kOptimized || kSanitized) {
    std::fprintf(stderr,
                 "movrbench: refusing to time a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo and no sanitizers\n",
                 kSanitized ? "sanitized" : "unoptimized");
    return 3;
  }

  movrbench::Checks checks;
  // The first unit warms caches and the allocator and gives the reference
  // fingerprint and the peak-memory reading; it is not timed or traced.
  const Unit first = movrbench::run_unit(workload, seed, size, threads, checks);
  const std::uint64_t first_unit_rss_kb = peak_rss_kb();
  std::vector<Unit> units;
  movrbench::trace::reset();
  const auto start = std::chrono::steady_clock::now();
  while (units.size() < min_units ||
         std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
                 .count() < seconds) {
    Unit unit = movrbench::run_unit(workload, seed, size, threads, checks);
    checks.expect(unit.fingerprint == first.fingerprint,
                  "fingerprint differs between units of one run: " +
                      hex(first.fingerprint) + " vs " +
                      hex(unit.fingerprint));
    units.push_back(std::move(unit));
  }
  const movrbench::trace::Totals totals = movrbench::trace::collect();

  double traced_wall_s = 0.0;
  JsonOut out;
  out.open('{');
  out.key("workload").str(movrbench::workload_name(workload));
  out.key("seed").num(seed);
  out.key("size").str(size == movrbench::Size::kFull ? "full" : "tiny");
  out.key("threads").num(static_cast<std::uint64_t>(threads));
  out.key("traced").boolean(movrbench::trace::enabled());
  out.key("build_type").str(MOVRBENCH_BUILD_TYPE);
  out.key("compiler").str(__VERSION__);
  out.key("optimized").boolean(kOptimized);
  out.key("sanitized").boolean(kSanitized);
  out.key("units").num(static_cast<std::uint64_t>(units.size()));
  out.key("setup_s").open('[');
  for (const Unit& u : units) {
    out.num(u.setup_s);
  }
  out.close(']');
  out.key("work_s").open('[');
  for (const Unit& u : units) {
    out.num(u.work_s);
    traced_wall_s += u.setup_s + u.work_s;
  }
  out.close(']');
  out.key("log_verify_s").open('[');
  for (const Unit& u : units) {
    out.num(u.log_verify_s);
  }
  out.close(']');
  out.key("user_sim_s").num(first.user_sim_s);
  out.key("fingerprint").str(hex(first.fingerprint));
  out.key("frames").num(first.frames);
  out.key("glitched_frames").num(first.glitched_frames);
  out.key("frames_emitted").num(first.frames_emitted);
  out.key("latency_bin_ms").num(first.latency.bin_ms);
  out.key("latency_bins").open('[');
  for (const std::uint64_t b : first.latency.bins) {
    out.num(b);
  }
  out.close(']');
  out.key("latency_overflow").num(first.latency.overflow);
  out.key("outage").num(first.outage);
  out.key("sim_events").num(first.sim_events);
  out.key("log_records").num(first.log_records);
  out.key("log_bytes").num(first.log_bytes);
  out.key("admission_evictions").num(first.admission_evictions);
  out.key("handovers_ok").num(first.handovers_ok);
  out.key("handovers_failed").num(first.handovers_failed);
  out.key("packets_enqueued").num(first.packets_enqueued);
  out.key("retransmits").num(first.retransmits);
  out.key("packets_recovered").num(first.packets_recovered);
  out.key("checks_attempted").num(checks.attempted);
  out.key("checks_failed").num(checks.failed);
  out.key("failures").open('[');
  for (const std::string& f : checks.failures) {
    out.str(f);
  }
  out.close(']');
  // Measured after the warm-up unit: later units reuse freed heap, and how
  // many of them fit in the time budget depends on the machine.
  out.key("peak_rss_kb").num(first_unit_rss_kb);
  if (movrbench::trace::enabled()) {
    // Sums over every measured unit; run.py divides by `units`.
    out.key("trace").open('{');
    out.key("wall_s").num(traced_wall_s);
    out.key("layers").open('{');
    for (int l = 0; l < movrbench::trace::kLayerCount; ++l) {
      out.key(movrbench::trace::kLayerNames[l]).open('{');
      out.key("calls").num(totals.layer[l].calls);
      out.key("self_s").num(totals.layer[l].self_s);
      out.key("inclusive_s").num(totals.layer[l].inclusive_s);
      out.close('}');
    }
    out.close('}');
    out.key("rf_field_calls").num(totals.rf_field_calls);
    out.key("interference_link_evals").num(totals.interference_link_evals);
    out.key("lease_acquires").num(totals.lease_acquires);
    out.key("lease_denials").num(totals.lease_denials);
    out.key("oracle_pairs").num(totals.oracle_pairs);
    out.key("oracle_miss_pairs").num(totals.oracle_miss_pairs);
    out.key("solver_pairs").num(totals.solver_pairs);
    out.close('}');
  }
  out.close('}');
  std::printf("%s\n", out.text().c_str());
  return checks.failed == 0 ? 0 : 1;
}
