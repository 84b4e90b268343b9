// Differential + accounting suite for ChannelOracle::query_batch and the
// borrowed-view accessor: batched answers must be bit-identical to the
// scalar paths_view loop under every cache temperature (cold, warm,
// mixed, duplicate-heavy) and across Room::revision() invalidations, and
// the stats must keep queries == hits + misses with the batch counters
// consistent.
#include <core/channel_oracle.hpp>

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include <channel/obstacle.hpp>
#include <channel/path_batch.hpp>

namespace movr::core {
namespace {

using geom::Vec2;

void expect_same_paths(const std::vector<channel::Path>& a,
                       const std::vector<channel::Path>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    EXPECT_EQ(a[p].loss.value(), b[p].loss.value());
    EXPECT_EQ(a[p].length_m, b[p].length_m);
    EXPECT_EQ(a[p].departure_azimuth, b[p].departure_azimuth);
    EXPECT_EQ(a[p].arrival_azimuth, b[p].arrival_azimuth);
    EXPECT_EQ(a[p].obstruction.value(), b[p].obstruction.value());
    EXPECT_EQ(a[p].bounces, b[p].bounces);
  }
}

/// Batched answers vs a scalar reference oracle over the same room state.
void expect_batch_matches_scalar(const ChannelOracle& oracle,
                                 const channel::EndpointBatch& batch) {
  std::vector<ChannelOracle::PathsView> views;
  oracle.query_batch(batch, views);
  ASSERT_EQ(views.size(), batch.size());
  // Reference: a fresh oracle (its own empty cache) over the same room.
  const ChannelOracle reference{oracle.room(), oracle.config()};
  for (std::size_t q = 0; q < batch.size(); ++q) {
    ASSERT_NE(views[q], nullptr) << "query " << q << " left unfilled";
    expect_same_paths(*views[q],
                      *reference.paths_view(batch.a(q), batch.b(q)));
  }
}

TEST(OracleBatch, ColdBatchMatchesScalarLoop) {
  channel::Room room = channel::Room::paper_office();
  std::mt19937_64 rng{3};
  room.add_obstacle(channel::make_person(room.random_interior_point(rng, 0.7)));
  const ChannelOracle oracle{room};

  channel::EndpointBatch batch;
  std::uniform_real_distribution<double> ux{0.2, room.width() - 0.2};
  std::uniform_real_distribution<double> uy{0.2, room.depth() - 0.2};
  for (int i = 0; i < 80; ++i) {
    batch.push({ux(rng), uy(rng)}, {ux(rng), uy(rng)});
  }
  expect_batch_matches_scalar(oracle, batch);

  const auto stats = oracle.stats();
  EXPECT_EQ(stats.batch_queries, 80u);
  EXPECT_EQ(stats.queries, stats.hits + stats.misses);
}

TEST(OracleBatch, WarmBatchIsAllHits) {
  const channel::Room room = channel::Room::paper_office();
  const ChannelOracle oracle{room};
  channel::EndpointBatch batch;
  for (int i = 0; i < 20; ++i) {
    batch.push({0.5 + 0.1 * i, 0.5}, {6.0, 4.0});
  }
  std::vector<ChannelOracle::PathsView> views;
  oracle.query_batch(batch, views);
  const auto cold = oracle.stats();
  EXPECT_EQ(cold.misses, 20u);

  oracle.query_batch(batch, views);
  const auto warm = oracle.stats();
  EXPECT_EQ(warm.misses, 20u) << "warm batch re-solved";
  EXPECT_EQ(warm.hits, cold.hits + 20u);
  EXPECT_EQ(warm.queries, warm.hits + warm.misses);
  expect_batch_matches_scalar(oracle, batch);
}

TEST(OracleBatch, MixedHitMissBatchMatchesScalar) {
  const channel::Room room = channel::Room::paper_office();
  const ChannelOracle oracle{room};

  // Warm half of the pairs through the scalar API first.
  channel::EndpointBatch batch;
  for (int i = 0; i < 40; ++i) {
    const Vec2 a{0.4 + 0.11 * i, 0.8};
    const Vec2 b{room.width() - 0.5, room.depth() - 0.7};
    batch.push(a, b);
    if (i % 2 == 0) {
      oracle.paths_view(a, b);
    }
  }
  const auto before = oracle.stats();
  expect_batch_matches_scalar(oracle, batch);
  const auto after = oracle.stats();
  EXPECT_EQ(after.hits - before.hits, 20u);
  EXPECT_EQ(after.misses - before.misses, 20u);
  EXPECT_EQ(after.queries, after.hits + after.misses);
}

TEST(OracleBatch, ConsecutiveDuplicatesSkipProbesAndShareAnswers) {
  const channel::Room room{7.0, 5.0};
  const ChannelOracle oracle{room};
  channel::EndpointBatch batch;
  const Vec2 ap{0.5, 0.5};
  // Codebook-sweep shape: the same pair repeated back to back, including a
  // run of duplicates whose first occurrence is itself a miss.
  batch.push(ap, {3.0, 3.0});
  batch.push(ap, {3.0, 3.0});
  batch.push(ap, {3.0, 3.0});
  batch.push(ap, {5.0, 1.0});
  batch.push(ap, {5.0, 1.0});
  // Non-consecutive repeat: probes the cache, which is only filled after
  // the probe pass — so within one cold batch it counts as its own miss
  // (and must still produce the identical answer).
  batch.push(ap, {3.0, 3.0});

  std::vector<ChannelOracle::PathsView> views;
  oracle.query_batch(batch, views);
  const auto stats = oracle.stats();
  EXPECT_EQ(stats.batch_queries, 6u);
  EXPECT_EQ(stats.batch_probes_saved, 3u);
  EXPECT_EQ(stats.misses, 3u);  // two distinct keys + the in-batch repeat
  EXPECT_EQ(stats.hits, 3u);    // the three probe-skips
  EXPECT_EQ(stats.queries, stats.hits + stats.misses);

  // Consecutive-duplicate slots alias the same immutable answer; the
  // non-consecutive repeat is a separate solve of the same inputs, so its
  // contents (not its pointer) must match.
  EXPECT_EQ(views[0].get(), views[1].get());
  EXPECT_EQ(views[0].get(), views[2].get());
  EXPECT_EQ(views[3].get(), views[4].get());
  expect_same_paths(*views[0], *views[5]);
  expect_batch_matches_scalar(oracle, batch);
}

TEST(OracleBatch, RevisionBumpBetweenBatchesInvalidatesAndResolves) {
  channel::Room room = channel::Room::paper_office();
  const ChannelOracle oracle{room};
  channel::EndpointBatch batch;
  for (int i = 0; i < 24; ++i) {
    batch.push({0.6 + 0.2 * i, 1.0}, {5.5, 3.5});
  }
  std::vector<ChannelOracle::PathsView> views;
  oracle.query_batch(batch, views);
  const ChannelOracle::PathsView before_mutation = views[0];

  // Mutating the room bumps its revision; the very next batch must drop the
  // cache and re-solve against the new geometry. The person stands on the
  // midpoint of query 0's LOS leg.
  const Vec2 mid = (batch.a(0) + batch.b(0)) * 0.5;
  room.add_obstacle(channel::make_person(mid));
  const auto stats_before = oracle.stats();
  oracle.query_batch(batch, views);
  const auto stats_after = oracle.stats();
  EXPECT_EQ(stats_after.invalidations, stats_before.invalidations + 1);
  EXPECT_EQ(stats_after.misses - stats_before.misses, 24u);
  expect_batch_matches_scalar(oracle, batch);

  // The pre-mutation view stays alive and readable (shared ownership) even
  // though the cache dropped it — it is merely stale.
  ASSERT_NE(before_mutation, nullptr);
  ASSERT_FALSE(before_mutation->empty());
  const ChannelOracle fresh{room};
  const auto now = *fresh.paths_view(batch.a(0), batch.b(0));
  // The person stands on the LOS leg, so the stale and fresh LOS paths
  // differ in obstruction — proof the second batch really re-solved.
  const auto los_of = [](const std::vector<channel::Path>& paths) {
    for (const channel::Path& p : paths) {
      if (p.bounces == 0) {
        return p.obstruction.value();
      }
    }
    ADD_FAILURE() << "no LOS path in answer";
    return 0.0;
  };
  EXPECT_EQ(los_of(*before_mutation), 0.0);
  EXPECT_GT(los_of(now), 0.0);
}

TEST(OracleBatch, PathsViewAliasesCacheAndMatchesDeepCopy) {
  const channel::Room room = channel::Room::paper_office();
  const ChannelOracle oracle{room};
  const Vec2 a{1.0, 1.0};
  const Vec2 b{6.0, 4.0};
  const ChannelOracle::PathsView view = oracle.paths_view(a, b);
  const ChannelOracle::PathsView again = oracle.paths_view(a, b);
  EXPECT_EQ(view.get(), again.get()) << "warm view did not alias the cache";
  expect_same_paths(*view, oracle.solver().solve(a, b));
}

TEST(OracleBatch, ArenaHighWaterIsMonotoneAndPositive) {
  const channel::Room room = channel::Room::paper_office();
  const ChannelOracle oracle{room};
  channel::EndpointBatch batch;
  for (int i = 0; i < 16; ++i) {
    batch.push({0.5, 0.5 + 0.2 * i}, {6.5, 4.5});
  }
  std::vector<ChannelOracle::PathsView> views;
  oracle.query_batch(batch, views);
  const auto first = oracle.stats().arena_bytes;
  EXPECT_GT(first, 0u);
  oracle.query_batch(batch, views);
  EXPECT_GE(oracle.stats().arena_bytes, first);
  EXPECT_EQ(oracle.stats().arena_bytes, first)
      << "warm identical batch grew the arena";
}

}  // namespace
}  // namespace movr::core
