// The harness of the gated bench mains: one flag table (Cli), the flags
// every seeded sweep shares (SweepFlags), one verdict (Gates) with the
// `--json` summary it closes, and the per-arm audit of the seeded session
// sweeps. A header because every bench/*.cpp builds into its own binary.
#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <vr/session.hpp>

#include "bench_util.hpp"

namespace movr::bench {

/// A bench's flag table. Each row binds a flag to a variable and checks the
/// value by the variable's type: an `int` is a count >= 1, a `double` is
/// finite and > 0, an `unsigned` and a seed are non-negative integers, and a
/// string and a `--users` list are non-empty. parse() reads every flag
/// before the bench runs anything; `--help` prints `about` and the rows,
/// each with its variable's default.
class Cli {
 public:
  explicit Cli(std::string about) : about_{std::move(about)} {}

  /// A switch: present sets `on`.
  Cli& flag(const char* name, bool& on, const char* help) {
    return add(name, "", help, "", "", [&on](std::string_view) {
      on = true;
      return true;
    });
  }
  Cli& flag(const char* name, int& count, const char* help) {
    return add(name, "N", help, std::to_string(count), "a count >= 1",
               [&count](std::string_view s) {
                 return whole(s, count) && count >= 1;
               });
  }
  Cli& flag(const char* name, unsigned& value, const char* help) {
    return add(name, "N", help, std::to_string(value), "a non-negative integer",
               [&value](std::string_view s) { return whole(s, value); });
  }
  /// A seed: present means replay exactly that one.
  Cli& flag(const char* name, std::optional<std::uint64_t>& seed,
            const char* help) {
    return add(name, "S", help, "", "a non-negative integer",
               [&seed](std::string_view s) {
                 seed.emplace();
                 return whole(s, *seed);
               });
  }
  Cli& flag(const char* name, double& value, const char* help,
            const char* meta = "SECONDS") {
    char shown[32];
    std::snprintf(shown, sizeof shown, "%g", value);
    return add(name, meta, help, shown, "a finite number > 0",
               [&value](std::string_view s) {
                 return whole(s, value) && std::isfinite(value) &&
                        value > 0.0;
               });
  }
  Cli& flag(const char* name, std::string& text, const char* help,
            const char* meta = "PATH") {
    return add(name, meta, help, text, "a non-empty value",
               [&text](std::string_view s) {
                 text = s;
                 return !text.empty();
               });
  }
  /// A comma-separated list of counts >= 1 (`--users 2,8,16`).
  Cli& flag(const char* name, std::vector<std::size_t>& counts,
            const char* help) {
    std::string shown;
    for (const std::size_t c : counts) {
      shown += (shown.empty() ? "" : ",") + std::to_string(c);
    }
    return add(name, "LIST", help, shown, "a list of counts >= 1",
               [&counts](std::string_view s) {
                 counts.clear();
                 for (std::size_t at = 0; at <= s.size();) {
                   const std::size_t end = std::min(s.find(',', at), s.size());
                   std::size_t c = 0;
                   if (!whole(s.substr(at, end - at), c) || c == 0) {
                     return false;
                   }
                   counts.push_back(c);
                   at = end + 1;
                 }
                 return true;
               });
  }

  /// Parses argv into the bound variables. Returns the exit status when the
  /// bench must stop: 0 after `--help`, 2 (naming the flag on stderr) for an
  /// unknown flag, a missing value or a value its type rejects.
  std::optional<int> parse(int argc, char** argv) const {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--help") {
        print_help();
        return 0;
      }
      const auto row =
          std::find_if(rows_.begin(), rows_.end(),
                       [&](const Row& r) { return arg == r.name; });
      if (row == rows_.end()) {
        std::fprintf(stderr, "unknown flag %s (see --help)\n", argv[i]);
        return 2;
      }
      const bool takes_value = *row->meta != '\0';
      if (takes_value && i + 1 == argc) {
        std::fprintf(stderr, "%s needs a value\n", row->name);
        return 2;
      }
      const char* value = takes_value ? argv[++i] : "";
      if (!row->set(value)) {
        std::fprintf(stderr, "%s wants %s, got '%s'\n", row->name, row->wants,
                     value);
        return 2;
      }
    }
    return std::nullopt;
  }

 private:
  struct Row {
    const char* name;
    const char* meta;
    const char* help;
    std::string shown;  // " (default X)", or empty when there is none
    const char* wants;
    std::function<bool(std::string_view)> set;
  };

  /// Parses all of `s` as one number; junk, a sign on an unsigned type and
  /// overflow all fail.
  template <typename T>
  static bool whole(std::string_view s, T& out) {
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
    return ec == std::errc{} && end == s.data() + s.size();
  }

  Cli& add(const char* name, const char* meta, const char* help,
           std::string shown, const char* wants,
           std::function<bool(std::string_view)> set) {
    if (!shown.empty()) {
      shown = " (default " + shown + ")";
    }
    rows_.push_back({name, meta, help, std::move(shown), wants,
                     std::move(set)});
    return *this;
  }

  void print_help() const {
    std::printf("%s\n\n", about_.c_str());
    for (const Row& row : rows_) {
      char head[64];
      std::snprintf(head, sizeof head, "%s %s", row.name, row.meta);
      std::printf("  %-20s %s%s\n", head, row.help, row.shown.c_str());
    }
    std::printf("  %-20s %s\n", "--help", "print this text");
  }

  std::string about_;
  std::vector<Row> rows_;
};

/// The flags every seeded sweep shares, with the bench's defaults.
struct SweepFlags {
  int seeds;
  double duration_s;
  std::optional<std::uint64_t> seed{};
  std::string json{};

  /// Adds --seeds, --seed, --duration and --json to `cli`.
  Cli& bind(Cli& cli) {
    return cli.flag("--seeds", seeds, "run seeds 1..N")
        .flag("--seed", seed, "run exactly one seed (replay mode)")
        .flag("--duration", duration_s, "simulated seconds per run")
        .flag("--json", json, "write a machine-readable summary to PATH");
  }

  bool replay() const { return seed.has_value(); }

  /// Exactly --seed in replay mode, else 1..--seeds.
  std::vector<std::uint64_t> seed_list() const {
    if (replay()) {
      return {*seed};
    }
    std::vector<std::uint64_t> out;
    for (int s = 1; s <= seeds; ++s) {
      out.push_back(static_cast<std::uint64_t>(s));
    }
    return out;
  }

  /// The members every sweep's summary opens with.
  Json summary(const char* bench, double wall_s) const {
    Json doc = Json::object();
    doc.set("bench", bench)
        .set("wall_time_s", wall_s)
        .set("duration_s", duration_s)
        .set("seeds", static_cast<std::uint64_t>(seed_list().size()))
        .set("replay", replay());
    return doc;
  }
};

/// Wall-clock seconds since `start`.
inline double seconds_since(std::chrono::steady_clock::time_point start) {
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

/// A bench's verdict: every failed gate prints one `FAIL:` line and counts
/// once.
class Gates {
 public:
  /// Fails a gate unless `ok`, printing "FAIL: " and the message.
  [[gnu::format(printf, 3, 4)]] bool expect(bool ok, const char* fmt, ...) {
    if (!ok) {
      std::va_list args;
      va_start(args, fmt);
      std::printf("FAIL: ");
      std::vprintf(fmt, args);
      std::printf("\n");
      va_end(args);
      ++failures_;
    }
    return ok;
  }

  int failures() const { return failures_; }
  bool ok() const { return failures_ == 0; }

  /// With a non-empty `path`, closes `summary` with `pass` and `rows` under
  /// `key`, prints it as the `json:` line and writes it to `path`. A summary
  /// that cannot be written fails a gate.
  void write(const std::string& path, Json summary, const char* key,
             Json rows) {
    if (!path.empty()) {
      summary.set("pass", ok()).set(key, std::move(rows));
      expect(emit_json(path, summary), "cannot write %s", path.c_str());
    }
  }

  /// The run's last line and exit status: "OK: <message>" and 0, or the
  /// number of failed gates and 1.
  [[gnu::format(printf, 2, 3)]] int finish(const char* fmt, ...) {
    if (!ok()) {
      std::printf("\nFAIL: %d gate(s) failed\n", failures_);
      return 1;
    }
    std::va_list args;
    va_start(args, fmt);
    std::printf("\nOK: ");
    std::vprintf(fmt, args);
    std::printf("\n");
    va_end(args);
    return 0;
  }

 private:
  int failures_{0};
};

/// One arm of a seeded session sweep (burst_loss, predictive).
struct ArmResult {
  vr::QoeReport report;
  std::uint64_t ledger_checks{0};
  std::uint64_t ledger_violations{0};
  std::uint64_t fingerprint{0};
};

/// Audits `session`'s extended packet ledger every 20 ms of sim time before
/// `end` into `result`; call it between building and running the session.
inline void audit_ledger(sim::Simulator& simulator, const vr::Session& session,
                         sim::TimePoint end, ArmResult& result) {
  constexpr std::chrono::milliseconds kTick{20};
  for (sim::TimePoint t{kTick}; t < end; t += kTick) {
    simulator.at(t, [&result, &session] {
      ++result.ledger_checks;
      if (!session.transport()->ledger_closes()) {
        ++result.ledger_violations;
      }
    });
  }
}

/// The per-arm gates of a seeded session sweep: the ledger closed at every
/// 20 ms check and at session end, and `storm` forced the burst chain bad.
/// A failing arm prints its replay command.
inline void check_arm(Gates& gates, const ArmResult& r, const char* bench,
                      const char* arm, const char* storm, std::uint64_t seed,
                      double duration_s) {
  const int before = gates.failures();
  const auto s = static_cast<unsigned long long>(seed);
  gates.expect(r.ledger_violations == 0,
               "%llu of %llu ledger checks open (seed %llu, %s)",
               static_cast<unsigned long long>(r.ledger_violations),
               static_cast<unsigned long long>(r.ledger_checks), s, arm);
  gates.expect(r.report.transport->conserved(),
               "final packet ledger does not close (seed %llu, %s)", s, arm);
  gates.expect(r.report.burst.has_value() && r.report.burst->forced_bad > 0,
               "the %s never forced the burst chain bad "
               "(seed %llu, %s)",
               storm, s, arm);
  if (gates.failures() > before) {
    print_replay(bench, seed, duration_s);
  }
}

}  // namespace movr::bench
