// Revisioned, memoising front door to the channel solver.
//
// Path sets depend only on (source, destination, room state). The oracle
// caches solved path sets keyed by the quantised endpoint pair, and stamps
// the whole cache with the Room's revision counter: any obstacle or
// wall-material mutation bumps the revision (see channel::Room::revision),
// so the next query drops every stale entry before answering. Steering and
// gain state live *above* the paths (in the SNR assembly) and never enter
// the cache, which is why Scene can keep re-steering between queries at
// zero cache cost. The oracle binds to its Room once, at construction: the
// Room must outlive it at the same address (core::Scene keeps its Room on
// the heap, so a moved Scene keeps its oracle's binding and warm cache).
//
// Query shapes, cheapest first:
//  - paths_view(a, b): borrowed view of the cached path set. A warm hit
//    costs one lock + one probe + one shared_ptr copy — no path copying.
//    The view stays valid even if the cache is invalidated afterwards
//    (shared ownership keeps the vector alive), it just goes stale the way
//    any already-read answer would.
//  - query_batch(batch, out): many endpoint pairs under ONE lock acquisition
//    and one revision check; misses are gathered and solved in a single
//    PathSolver::solve_batch call. Consecutive duplicate keys skip the cache
//    probe entirely (Stats::batch_probes_saved). A fully-warmed batch
//    performs zero heap allocations.
// A caller that needs its own mutable copy takes
// std::vector<Path>{*paths_view(a, b)}.
//
// Thread-safety: all query paths are const and internally synchronized (one
// mutex around the cache); any number of threads may query one oracle
// concurrently as long as nobody mutates the bound Room at the same time.
// Room mutation requires the same external exclusion the Room itself needs.
// A path set's (generation(), view address) identity is the exception: it
// holds only while one thread queries the oracle (see generation()).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include <channel/path_batch.hpp>
#include <channel/path_solver.hpp>
#include <channel/room.hpp>
#include <geom/vec2.hpp>

namespace movr::core {

class ChannelOracle {
 public:
  struct Config {
    channel::PathSolver::Config solver{};
    /// The cache is dropped wholesale when it reaches this many entries
    /// (bounds memory on unbounded query streams, e.g. Monte Carlo runs).
    std::size_t max_entries{1u << 16};
  };

  /// Shared-ownership view of a cached path set. Copying is allocation-free;
  /// the pointee is immutable and outlives any cache invalidation.
  using PathsView = std::shared_ptr<const std::vector<channel::Path>>;

  explicit ChannelOracle(const channel::Room& room)
      : ChannelOracle{room, Config{}} {}
  ChannelOracle(const channel::Room& room, Config config);

  const channel::Room& room() const { return solver_.room(); }
  const channel::PathSolver& solver() const { return solver_; }
  const Config& config() const { return config_; }

  /// Memoised equivalent of PathSolver::solve, as a borrowed view: no path
  /// copying on a warm hit.
  PathsView paths_view(geom::Vec2 a, geom::Vec2 b) const;

  /// Answers every pair in `batch` under one lock acquisition: one probe
  /// pass, one batched solve for the misses. `out` is cleared and filled
  /// with one view per query, in batch order; its capacity (like all
  /// internal scratch) is reused across calls.
  void query_batch(const channel::EndpointBatch& batch,
                   std::vector<PathsView>& out) const;

  /// Names the cache's current contents. Drawn from a process-wide counter
  /// (never 0) at construction and again at every cache drop (revision
  /// bump, size cap), so no two caches, of this oracle or any
  /// other, share one. paths_view only ever returns a view the cache keeps
  /// until its next drop, so within one generation a view's address names
  /// one path set: (generation(), view address) is a path set's identity
  /// (Scene's hop memos key on it). Read it after the paths_view call,
  /// which may drop the cache. The pair is sound only if no other thread
  /// queries this oracle between the two calls: its miss may reach the
  /// size cap and drop the cache, and the pair would then name the new
  /// generation with a view that the drop released, whose address a later
  /// path set of that generation may take.
  std::uint64_t generation() const {
    return generation_.load(std::memory_order_relaxed);
  }

  struct Stats {
    std::uint64_t queries{0};
    std::uint64_t hits{0};
    std::uint64_t misses{0};
    /// Cache drops: revision bumps observed and size-cap evictions.
    std::uint64_t invalidations{0};
    /// Queries answered through query_batch (subset of `queries`).
    std::uint64_t batch_queries{0};
    /// Batch queries whose cache probe was skipped because the preceding
    /// query in the same batch had the same quantised key (grid sweeps and
    /// codebook scans repeat endpoints back to back).
    std::uint64_t batch_probes_saved{0};
    /// High-water mark of the batch scratch arena (endpoint batch, result
    /// batch, solver workspace, slot maps), bytes. Monotone: the
    /// scratch keeps its capacity across calls and invalidations.
    std::uint64_t arena_bytes{0};

    double hit_rate() const {
      return queries == 0
                 ? 0.0
                 : static_cast<double>(hits) / static_cast<double>(queries);
    }
    Stats& operator+=(const Stats& o) {
      queries += o.queries;
      hits += o.hits;
      misses += o.misses;
      invalidations += o.invalidations;
      batch_queries += o.batch_queries;
      batch_probes_saved += o.batch_probes_saved;
      // A high-water mark, not a flow: aggregating workers takes the max.
      arena_bytes = arena_bytes > o.arena_bytes ? arena_bytes : o.arena_bytes;
      return *this;
    }
  };
  Stats stats() const;
  void reset_stats() const;

 private:
  struct Key {
    std::int64_t ax, ay, bx, by;
    bool operator==(const Key&) const = default;
  };

  /// Insert-only open-addressing table Key -> PathsView. The oracle never
  /// erases individual entries — invalidation drops the whole table — so
  /// linear probing needs no tombstones and a warm probe is one contiguous
  /// scan, measurably faster than unordered_map's bucket chains in the
  /// query_batch hot loop. clear() nulls the views but keeps the slot
  /// array, so a re-warmed cache re-fills without rehashing.
  class PathCache {
   public:
    /// The stored view, or nullptr when absent. The pointer is invalidated
    /// by insert() and clear().
    const PathsView* find(const Key& key, std::uint64_t hash) const {
      if (slots_.empty()) {
        return nullptr;
      }
      std::size_t i = static_cast<std::size_t>(hash) & mask_;
      while (slots_[i].view != nullptr) {
        if (slots_[i].key == key) {
          return &slots_[i].view;
        }
        i = (i + 1) & mask_;
      }
      return nullptr;
    }
    /// Inserts unless the key is already present (the existing entry wins,
    /// like unordered_map::emplace).
    void insert(const Key& key, std::uint64_t hash, PathsView view);
    std::size_t size() const { return size_; }
    void clear();

   private:
    struct Slot {
      Key key{};
      PathsView view{};  // nullptr marks an empty slot
    };

    bool place(const Key& key, std::uint64_t hash, PathsView view);

    std::vector<Slot> slots_;
    std::size_t mask_{0};
    std::size_t size_{0};
  };

  static std::uint64_t hash_key(const Key& k);
  Key make_key(geom::Vec2 a, geom::Vec2 b) const;
  void drop_cache_locked() const;
  void check_revision_locked() const;
  PathsView view_locked(geom::Vec2 a, geom::Vec2 b) const;
  void note_arena_locked() const;

  channel::PathSolver solver_;
  Config config_;
  mutable std::mutex mutex_;
  mutable PathCache cache_;
  mutable std::uint64_t seen_revision_;
  mutable Stats stats_;
  /// Written under mutex_; atomic so that generation() reads it lock-free.
  mutable std::atomic<std::uint64_t> generation_;

  // Batch scratch, guarded by mutex_; capacity persists across calls so a
  // warmed query_batch allocates nothing.
  mutable channel::EndpointBatch miss_batch_;
  mutable channel::PathBatch miss_paths_;
  mutable channel::PathSolver::BatchWorkspace batch_ws_;
  mutable std::vector<std::size_t> miss_query_;
  mutable std::vector<std::size_t> miss_slot_;
  mutable std::vector<Key> miss_keys_;
  mutable std::vector<PathsView> slot_views_;
};

}  // namespace movr::core
