#include <core/channel_oracle.hpp>

#include <cmath>
#include <span>
#include <utility>

namespace movr::core {

namespace {

/// splitmix64 finalizer: cheap, well-mixed 64-bit hash step.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Nearest integer, ties away from zero, branchless. std::llround compiles
/// to a libm call (x86 converts with ties-to-even), which dominated the
/// warm probe loop's key computation; adding a signed half and truncating
/// matches it everywhere but ulp-edge ties, and key consistency only needs
/// every caller to quantise the same way — they all go through make_key.
std::int64_t round_away(double v) {
  return static_cast<std::int64_t>(v + std::copysign(0.5, v));
}

/// Cache keys quantise endpoints to a 1 µm grid: far below any physical
/// significance, far above double noise. The key multiplies by the inverse
/// instead of dividing in the per-query probe loop.
constexpr double kInvQuantum = 1.0 / 1e-6;

/// The next cache generation: process-wide, so that no two oracles' caches
/// share one, and starting at 1, so that a zeroed key never matches.
std::uint64_t next_generation() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

ChannelOracle::ChannelOracle(const channel::Room& room, Config config)
    : solver_{room, config.solver},
      config_{config},
      seen_revision_{room.revision()},
      generation_{next_generation()} {}

std::uint64_t ChannelOracle::hash_key(const Key& k) {
  // Four independent multiplies (ILP) folded by one splitmix round: enough
  // mixing for a power-of-two linear-probing table.
  return mix(static_cast<std::uint64_t>(k.ax) * 0x9e3779b97f4a7c15ULL ^
             static_cast<std::uint64_t>(k.ay) * 0xc2b2ae3d27d4eb4fULL ^
             static_cast<std::uint64_t>(k.bx) * 0x165667b19e3779f9ULL ^
             static_cast<std::uint64_t>(k.by) * 0x27d4eb2f165667c5ULL);
}

ChannelOracle::Key ChannelOracle::make_key(geom::Vec2 a, geom::Vec2 b) const {
  const double s = kInvQuantum;
  return Key{round_away(a.x * s), round_away(a.y * s), round_away(b.x * s),
             round_away(b.y * s)};
}

bool ChannelOracle::PathCache::place(const Key& key, std::uint64_t hash,
                                     PathsView view) {
  std::size_t i = static_cast<std::size_t>(hash) & mask_;
  while (slots_[i].view != nullptr) {
    if (slots_[i].key == key) {
      return false;  // existing entry wins
    }
    i = (i + 1) & mask_;
  }
  slots_[i].key = key;
  slots_[i].view = std::move(view);
  return true;
}

void ChannelOracle::PathCache::insert(const Key& key, std::uint64_t hash,
                                      PathsView view) {
  if (slots_.empty()) {
    slots_.resize(1024);
    mask_ = slots_.size() - 1;
  } else if ((size_ + 1) * 4 > slots_.size() * 3) {  // max load factor 3/4
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    for (Slot& s : old) {
      if (s.view != nullptr) {
        place(s.key, hash_key(s.key), std::move(s.view));
      }
    }
  }
  if (place(key, hash, std::move(view))) {
    ++size_;
  }
}

void ChannelOracle::PathCache::clear() {
  for (Slot& s : slots_) {
    s.view = nullptr;
  }
  size_ = 0;
}

void ChannelOracle::drop_cache_locked() const {
  cache_.clear();
  ++stats_.invalidations;
  generation_.store(next_generation(), std::memory_order_relaxed);
}

void ChannelOracle::check_revision_locked() const {
  const std::uint64_t revision = solver_.room().revision();
  if (revision != seen_revision_) {
    drop_cache_locked();
    seen_revision_ = revision;
  }
}

ChannelOracle::PathsView ChannelOracle::view_locked(geom::Vec2 a,
                                                    geom::Vec2 b) const {
  ++stats_.queries;
  check_revision_locked();
  const Key key = make_key(a, b);
  const std::uint64_t hash = hash_key(key);
  if (const PathsView* hit = cache_.find(key, hash)) {
    ++stats_.hits;
    return *hit;
  }
  ++stats_.misses;
  if (cache_.size() >= config_.max_entries) {
    drop_cache_locked();
  }
  PathsView view =
      std::make_shared<const std::vector<channel::Path>>(solver_.solve(a, b));
  cache_.insert(key, hash, view);
  return view;
}

ChannelOracle::PathsView ChannelOracle::paths_view(geom::Vec2 a,
                                                   geom::Vec2 b) const {
  const std::scoped_lock lock{mutex_};
  return view_locked(a, b);
}

void ChannelOracle::query_batch(const channel::EndpointBatch& batch,
                                std::vector<PathsView>& out) const {
  out.clear();
  const std::size_t n = batch.size();
  const std::scoped_lock lock{mutex_};
  stats_.queries += n;
  stats_.batch_queries += n;
  if (n == 0) {
    return;
  }
  check_revision_locked();

  out.reserve(n);
  miss_batch_.clear();
  miss_query_.clear();
  miss_slot_.clear();
  miss_keys_.clear();

  // Probe pass. Grid rows and codebook sweeps repeat an endpoint pair back
  // to back; a key equal to its predecessor reuses the predecessor's answer
  // (or pending miss slot) without touching the hash table.
  Key prev_key{};
  bool have_prev = false;
  bool prev_was_miss = false;
  for (std::size_t q = 0; q < n; ++q) {
    const geom::Vec2 a = batch.a(q);
    const geom::Vec2 b = batch.b(q);
    const Key key = make_key(a, b);
    if (have_prev && key == prev_key) {
      ++stats_.batch_probes_saved;
      ++stats_.hits;  // served without a solve of its own
      if (prev_was_miss) {
        miss_query_.push_back(q);
        miss_slot_.push_back(miss_batch_.size() - 1);
        out.push_back(nullptr);
      } else {
        out.push_back(out.back());
      }
      continue;
    }
    prev_key = key;
    have_prev = true;
    if (const PathsView* hit = cache_.find(key, hash_key(key))) {
      ++stats_.hits;
      prev_was_miss = false;
      out.push_back(*hit);
      continue;
    }
    ++stats_.misses;
    prev_was_miss = true;
    miss_query_.push_back(q);
    miss_slot_.push_back(miss_batch_.size());
    miss_keys_.push_back(key);
    miss_batch_.push(a, b);
    out.push_back(nullptr);
  }

  if (miss_batch_.empty()) {
    note_arena_locked();
    return;
  }

  // One batched solve for every distinct miss, then fill the cache and the
  // placeholder slots. Misses allocate (the cache takes ownership of fresh
  // vectors); the zero-allocation guarantee is for fully-warmed batches.
  solver_.solve_batch(miss_batch_, miss_paths_, batch_ws_);
  slot_views_.clear();
  slot_views_.resize(miss_batch_.size());
  for (std::size_t s = 0; s < miss_batch_.size(); ++s) {
    const std::span<const channel::Path> solved = miss_paths_.query(s);
    if (cache_.size() >= config_.max_entries) {
      drop_cache_locked();
    }
    PathsView view = std::make_shared<const std::vector<channel::Path>>(
        solved.begin(), solved.end());
    cache_.insert(miss_keys_[s], hash_key(miss_keys_[s]), view);
    slot_views_[s] = std::move(view);
  }
  for (std::size_t k = 0; k < miss_query_.size(); ++k) {
    out[miss_query_[k]] = slot_views_[miss_slot_[k]];
  }
  slot_views_.clear();  // drop scratch references, keep capacity
  note_arena_locked();
}

void ChannelOracle::note_arena_locked() const {
  const std::size_t bytes =
      miss_batch_.arena_bytes() + miss_paths_.arena_bytes() +
      batch_ws_.arena_bytes() +
      (miss_query_.capacity() + miss_slot_.capacity()) * sizeof(std::size_t) +
      miss_keys_.capacity() * sizeof(Key) +
      slot_views_.capacity() * sizeof(PathsView);
  if (bytes > stats_.arena_bytes) {
    stats_.arena_bytes = bytes;
  }
}

ChannelOracle::Stats ChannelOracle::stats() const {
  const std::scoped_lock lock{mutex_};
  return stats_;
}

void ChannelOracle::reset_stats() const {
  const std::scoped_lock lock{mutex_};
  stats_ = Stats{};
}

}  // namespace movr::core
