// Containers for batched path queries.
//
// The scalar API answers one endpoint pair at a time and returns a fresh
// std::vector<Path> — fine for a handful of queries, but a coverage grid or
// a codebook sweep asks thousands of questions per pose update. A batch
// answers them all into recycled storage: clear() keeps every Path slot and
// its vertex buffer, so a warmed batch is refilled with zero heap
// allocations.
//
// Layout contract (documented in DESIGN.md §11):
//  - EndpointBatch: query i is (a(i), b(i)).
//  - PathBatch: query(q) is query q's paths, strongest first — exactly what
//    PathSolver::solve returns for the same endpoints.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include <channel/path.hpp>
#include <geom/vec2.hpp>

namespace movr::channel {

/// A flat batch of (source, destination) endpoint pairs.
class EndpointBatch {
 public:
  void clear() { pairs_.clear(); }
  void reserve(std::size_t n) { pairs_.reserve(n); }
  void push(geom::Vec2 a, geom::Vec2 b) { pairs_.push_back({a, b}); }

  std::size_t size() const { return pairs_.size(); }
  bool empty() const { return pairs_.empty(); }

  geom::Vec2 a(std::size_t i) const { return pairs_[i].a; }
  geom::Vec2 b(std::size_t i) const { return pairs_[i].b; }

  /// Bytes of backing storage currently owned (capacity, not size).
  std::size_t arena_bytes() const { return pairs_.capacity() * sizeof(Pair); }

 private:
  struct Pair {
    geom::Vec2 a;
    geom::Vec2 b;
  };
  std::vector<Pair> pairs_;
};

/// Results of a batched solve, grouped by query. Filled by
/// PathSolver::solve_batch; clear() keeps the slots.
class PathBatch {
 public:
  /// Source, two bounce points, destination: the most vertices a solved
  /// path has. Every new slot reserves this many, so a recycled slot never
  /// reallocates.
  static constexpr std::size_t kMaxVertices = 4;

  void clear() {
    query_begin_.clear();
    query_begin_.push_back(0);
    used_ = 0;
  }

  PathBatch() { clear(); }

  std::size_t queries() const { return query_begin_.size() - 1; }
  std::size_t paths() const { return used_; }

  /// Query q's paths, strongest first. Valid until the next clear() or
  /// add_path().
  std::span<const Path> query(std::size_t q) const {
    return {slots_.data() + query_begin_[q],
            query_begin_[q + 1] - query_begin_[q]};
  }

  // Filling interface, used by the solver: add_path() hands out the next
  // slot of the current query (holding stale contents the caller must
  // overwrite); end_query() closes the query.
  Path& add_path() {
    if (used_ == slots_.size()) {
      slots_.emplace_back().vertices.reserve(kMaxVertices);
    }
    return slots_[used_++];
  }
  void end_query() { query_begin_.push_back(used_); }

  /// Bytes of backing storage currently owned (capacity, not size). O(1),
  /// because every constructed slot reserved kMaxVertices vertices: the
  /// oracle reads this on every query_batch.
  std::size_t arena_bytes() const {
    return query_begin_.capacity() * sizeof(std::size_t) +
           slots_.capacity() * sizeof(Path) +
           slots_.size() * kMaxVertices * sizeof(geom::Vec2);
  }

 private:
  std::vector<std::size_t> query_begin_;
  /// slots_[0, used_) hold the answers; the rest wait, warm, for reuse.
  std::vector<Path> slots_;
  std::size_t used_{0};
};

}  // namespace movr::channel
