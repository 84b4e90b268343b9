// Shared helpers for the reproduction benches: canonical scenes, statistics
// and the table format every bench prints (experiment row + paper target).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <core/movr.hpp>
#include <geom/angle.hpp>
#include <net/stats.hpp>

namespace movr::bench {

/// The paper's testbed: a 5x5 m office, AP next to the PC in one corner.
inline core::Scene paper_scene(geom::Vec2 headset_pos,
                               bool with_furniture = true) {
  auto room = with_furniture ? channel::Room::paper_office()
                             : channel::Room{5.0, 5.0};
  const geom::Vec2 ap_pos{0.4, 0.4};
  core::ApRadio ap{ap_pos, geom::deg_to_rad(45.0)};
  core::HeadsetRadio headset{headset_pos, 0.0};
  return core::Scene{std::move(room), std::move(ap), std::move(headset)};
}

/// One uniform draw from [lo, hi) on a seeded stream.
inline double uniform(std::mt19937_64& g, double lo, double hi) {
  return std::uniform_real_distribution<double>{lo, hi}(g);
}

struct Stats {
  double mean{0.0};
  double min{0.0};
  double max{0.0};
  double median{0.0};
};

inline Stats stats_of(std::vector<double> v) {
  Stats s;
  if (v.empty()) {
    return s;
  }
  s.mean = std::accumulate(v.begin(), v.end(), 0.0) /
           static_cast<double>(v.size());
  std::sort(v.begin(), v.end());
  s.min = v.front();
  s.max = v.back();
  s.median = v[v.size() / 2];
  return s;
}

inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

/// Reconstructs a latency sample set from a transport's histogram: bin
/// centers for completed frames, +infinity for frames that never completed.
inline std::vector<double> latency_samples(
    const net::TransportMetrics& metrics) {
  std::vector<double> samples;
  const double bin = metrics.histogram.bin_ms;
  for (std::size_t i = 0; i < metrics.histogram.bins.size(); ++i) {
    const double center = (static_cast<double>(i) + 0.5) * bin;
    for (std::uint64_t n = 0; n < metrics.histogram.bins[i]; ++n) {
      samples.push_back(center);
    }
  }
  const double past_end =
      bin * static_cast<double>(metrics.histogram.bins.size());
  for (std::uint64_t n = 0; n < metrics.histogram.overflow; ++n) {
    samples.push_back(past_end);
  }
  const std::uint64_t finite = metrics.histogram.total();
  for (std::uint64_t n = finite; n < metrics.frames_emitted; ++n) {
    samples.push_back(std::numeric_limits<double>::infinity());
  }
  return samples;
}

/// One step of the chained counter digest the replayable benches use as a
/// run fingerprint (a replayed seed must reproduce the hash exactly).
inline std::uint64_t fingerprint_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

/// Fixed-width 16-hex-digit rendering of a fingerprint, for table columns
/// and replay comparisons.
inline std::string fingerprint_hex(std::uint64_t fingerprint) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buf;
}

/// Creates `dir` and its parents for a bench's output files; false, with
/// the reason on stderr, when it cannot.
inline bool make_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
  }
  return !ec;
}

/// The exact single-seed replay command a failing run prints; `extra` is
/// appended verbatim (leading space included) for bench-specific flags.
inline void print_replay(const char* bench, std::uint64_t seed,
                         double duration_s, const std::string& extra = {}) {
  std::printf("  replay: %s --seed %llu --duration %g%s\n", bench,
              static_cast<unsigned long long>(seed), duration_s,
              extra.c_str());
}

/// Minimal ordered JSON value tree for the bench artifacts (BENCH_*.json):
/// enough for objects, arrays, numbers, strings and bools — no parsing, no
/// dependencies. Non-finite numbers serialize as null (JSON has no inf).
class Json {
 public:
  Json() = default;
  Json(bool b) : kind_{Kind::kBool}, bool_{b} {}  // NOLINT(runtime/explicit)
  Json(double v) : kind_{Kind::kNumber}, num_{v} {}
  Json(int v) : Json{static_cast<double>(v)} {}
  Json(long v) : Json{static_cast<double>(v)} {}
  Json(std::uint64_t v) : Json{static_cast<double>(v)} {}
  Json(const char* s) : kind_{Kind::kString}, str_{s} {}
  Json(std::string s) : kind_{Kind::kString}, str_{std::move(s)} {}

  static Json object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }
  static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }

  /// Object member (insertion order preserved). Returns *this for chaining.
  Json& set(std::string key, Json value) {
    members_.emplace_back(std::move(key), std::move(value));
    return *this;
  }
  /// Array element.
  Json& push(Json value) {
    members_.emplace_back(std::string{}, std::move(value));
    return *this;
  }

  std::string dump() const {
    std::string out;
    write(out);
    return out;
  }

 private:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  static void escape(const std::string& s, std::string& out) {
    out += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    out += '"';
  }

  void write(std::string& out) const {
    switch (kind_) {
      case Kind::kNull:
        out += "null";
        break;
      case Kind::kBool:
        out += bool_ ? "true" : "false";
        break;
      case Kind::kNumber: {
        if (!std::isfinite(num_)) {
          out += "null";
          break;
        }
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.6g", num_);
        out += buf;
        break;
      }
      case Kind::kString:
        escape(str_, out);
        break;
      case Kind::kArray: {
        out += '[';
        bool first = true;
        for (const auto& [key, value] : members_) {
          if (!first) {
            out += ',';
          }
          first = false;
          value.write(out);
        }
        out += ']';
        break;
      }
      case Kind::kObject: {
        out += '{';
        bool first = true;
        for (const auto& [key, value] : members_) {
          if (!first) {
            out += ',';
          }
          first = false;
          escape(key, out);
          out += ':';
          value.write(out);
        }
        out += '}';
        break;
      }
    }
  }

  Kind kind_{Kind::kNull};
  bool bool_{false};
  double num_{0.0};
  std::string str_;
  std::vector<std::pair<std::string, Json>> members_;
};

/// Prints the machine-readable `json:` trend line and, when `path` is
/// non-empty, writes the same document to the file (the committed BENCH_*
/// artifacts and the CI uploads both come from here).
inline bool emit_json(const std::string& path, const Json& value) {
  const std::string text = value.dump();
  std::printf("\njson: %s\n", text.c_str());
  if (path.empty()) {
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "emit_json: cannot open %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "%s\n", text.c_str());
  std::fclose(f);
  return true;
}

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void print_cdf(const char* name, std::vector<double> values) {
  std::printf("  CDF  %-10s:", name);
  for (double q = 0.0; q <= 1.0001; q += 0.1) {
    std::printf(" %6.1f", percentile(values, std::min(q, 1.0)));
  }
  std::printf("   (q=0.0..1.0)\n");
}

}  // namespace movr::bench
