#include <gtest/gtest.h>

#include "stage/cache/exec_time_cache.h"
#include "stage/cache/sharded_cache.h"
#include "stage/common/rng.h"

namespace stage::cache {
namespace {

ExecTimeCacheConfig SmallConfig(size_t capacity = 3, double alpha = 0.8) {
  ExecTimeCacheConfig config;
  config.capacity = capacity;
  config.alpha = alpha;
  return config;
}

TEST(ExecTimeCacheTest, MissOnEmpty) {
  ExecTimeCache cache(SmallConfig());
  EXPECT_FALSE(cache.Predict(1).has_value());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(ExecTimeCacheTest, HitAfterObserve) {
  ExecTimeCache cache(SmallConfig());
  cache.Observe(1, 2.0, 10);
  const auto prediction = cache.Predict(1);
  ASSERT_TRUE(prediction.has_value());
  EXPECT_DOUBLE_EQ(*prediction, 2.0);  // mean == last for one observation.
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(ExecTimeCacheTest, BlendFormulaAlphaMeanPlusLast) {
  // Observations 1.0, 2.0, 6.0: mean = 3.0, last = 6.0.
  ExecTimeCache cache(SmallConfig(3, 0.8));
  cache.Observe(1, 1.0, 1);
  cache.Observe(1, 2.0, 2);
  cache.Observe(1, 6.0, 3);
  EXPECT_DOUBLE_EQ(*cache.Predict(1), 0.8 * 3.0 + 0.2 * 6.0);
}

TEST(ExecTimeCacheTest, AlphaZeroTracksLastOnly) {
  ExecTimeCache cache(SmallConfig(3, 0.0));
  cache.Observe(1, 1.0, 1);
  cache.Observe(1, 9.0, 2);
  EXPECT_DOUBLE_EQ(*cache.Predict(1), 9.0);
}

TEST(ExecTimeCacheTest, WelfordEntryStats) {
  ExecTimeCache cache(SmallConfig());
  cache.Observe(7, 1.0, 1);
  cache.Observe(7, 3.0, 2);
  const ExecTimeCache::Entry* entry = cache.Lookup(7);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->stats.count(), 2u);
  EXPECT_DOUBLE_EQ(entry->stats.mean(), 2.0);
  EXPECT_DOUBLE_EQ(entry->stats.variance(), 1.0);
  EXPECT_DOUBLE_EQ(entry->last_exec_time, 3.0);
  EXPECT_EQ(entry->last_update_tick, 2u);
}

TEST(ExecTimeCacheTest, EvictsLeastRecentlyUpdated) {
  ExecTimeCache cache(SmallConfig(2));
  cache.Observe(1, 1.0, 10);
  cache.Observe(2, 2.0, 20);
  // Refresh key 1: key 2 becomes the least-recently-updated.
  cache.Observe(1, 1.5, 30);
  cache.Observe(3, 3.0, 40);  // Evicts key 2.
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ExecTimeCacheTest, UpdateDoesNotEvict) {
  ExecTimeCache cache(SmallConfig(2));
  cache.Observe(1, 1.0, 1);
  cache.Observe(2, 2.0, 2);
  cache.Observe(1, 1.0, 3);  // Update in place; still full, no eviction.
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(ExecTimeCacheTest, ContainsHasNoCounterSideEffects) {
  ExecTimeCache cache(SmallConfig());
  cache.Observe(1, 1.0, 1);
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(ExecTimeCacheTest, CapacityNeverExceeded) {
  ExecTimeCache cache(SmallConfig(5));
  Rng rng(3);
  for (uint64_t i = 0; i < 100; ++i) {
    cache.Observe(rng.NextBelow(50), rng.NextDouble() * 10, i);
    EXPECT_LE(cache.size(), 5u);
  }
}

TEST(ExecTimeCacheTest, SameTickEvictionIsStable) {
  // Multiple entries sharing a tick (same "date") must still evict exactly
  // one entry, deterministically.
  ExecTimeCache cache(SmallConfig(2));
  cache.Observe(1, 1.0, 5);
  cache.Observe(2, 2.0, 5);
  cache.Observe(3, 3.0, 5);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.Contains(3));
}

TEST(ExecTimeCacheTest, MemoryBytesGrowsWithEntries) {
  ExecTimeCache cache(SmallConfig(100));
  const size_t empty = cache.MemoryBytes();
  for (uint64_t i = 0; i < 50; ++i) cache.Observe(i, 1.0, i);
  EXPECT_GT(cache.MemoryBytes(), empty);
}

// Property sweep: with alpha in [0,1], the prediction always lies between
// min and max of (mean, last).
class CacheBlendPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(CacheBlendPropertyTest, PredictionBetweenMeanAndLast) {
  ExecTimeCache cache(SmallConfig(4, GetParam()));
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    const uint64_t key = rng.NextBelow(4);
    cache.Observe(key, rng.NextLogNormal(0.0, 1.0), i);
    const ExecTimeCache::Entry* entry = cache.Lookup(key);
    const double lo = std::min(entry->stats.mean(), entry->last_exec_time);
    const double hi = std::max(entry->stats.mean(), entry->last_exec_time);
    const double prediction = *cache.Predict(key);
    EXPECT_GE(prediction, lo - 1e-12);
    EXPECT_LE(prediction, hi + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, CacheBlendPropertyTest,
                         ::testing::Values(0.0, 0.2, 0.5, 0.8, 1.0));

// The blend's extremes: alpha = 1 serves the running mean and alpha = 0 the
// last observation, both bit for bit.
TEST(ExecTimeCacheTest, PredictionModes) {
  // Feed 1, 2, 9: mean 4, last 9, blend 0.8*4 + 0.2*9 = 5.0.
  const auto predict = [](double alpha) {
    ExecTimeCache cache(SmallConfig(4, alpha));
    cache.Observe(1, 1.0, 1);
    cache.Observe(1, 2.0, 2);
    cache.Observe(1, 9.0, 3);
    return *cache.Predict(1);
  };
  EXPECT_DOUBLE_EQ(predict(0.8), 5.0);
  EXPECT_EQ(predict(1.0), 4.0);
  EXPECT_EQ(predict(0.0), 9.0);
}

TEST(ShardedCacheTest, SingleShardMatchesBareCache) {
  ExecTimeCacheConfig cache_config;
  cache_config.capacity = 8;  // Small, to exercise eviction.
  ExecTimeCache bare(cache_config);
  ShardedExecTimeCache sharded({cache_config, 1});

  for (uint64_t i = 0; i < 64; ++i) {
    const uint64_t key = i % 13;
    const double exec = static_cast<double>(i) * 0.5;
    // Observe reports the pre-observation membership (the §4.3 dedup
    // signal).
    const bool was_cached = bare.Contains(key);
    bare.Observe(key, exec, i);
    EXPECT_EQ(sharded.Observe(key, exec, i), was_cached) << key;
    const auto bare_prediction = bare.Predict(key);
    const auto sharded_prediction = sharded.Predict(key);
    ASSERT_EQ(bare_prediction.has_value(), sharded_prediction.has_value());
    EXPECT_DOUBLE_EQ(*bare_prediction, *sharded_prediction);
  }
  EXPECT_EQ(bare.size(), sharded.size());
  EXPECT_EQ(bare.hits(), sharded.hits());
  EXPECT_EQ(bare.misses(), sharded.misses());
  EXPECT_EQ(bare.evictions(), sharded.evictions());
}

TEST(ShardedCacheTest, SplitsCapacityAndAggregatesCounters) {
  ExecTimeCacheConfig cache_config;
  cache_config.capacity = 100;
  ShardedExecTimeCache sharded({cache_config, 8});
  EXPECT_EQ(sharded.num_shards(), 8u);
  EXPECT_EQ(sharded.shard_capacity(), 13u);  // ceil(100 / 8).

  for (uint64_t key = 0; key < 40; ++key) sharded.Observe(key, 1.0, key);
  EXPECT_EQ(sharded.size(), 40u);
  uint64_t hits = 0;
  uint64_t misses = 0;
  for (uint64_t key = 0; key < 80; ++key) {
    if (sharded.Predict(key)) {
      ++hits;
    } else {
      ++misses;
    }
  }
  EXPECT_EQ(sharded.hits(), hits);
  EXPECT_EQ(sharded.misses(), misses);
  EXPECT_GT(sharded.MemoryBytes(), 0u);
}

// Pins the documented divergence from the paper's single 2,000-entry cache
// (§4.2/§5.1): per-shard capacity is ceil(capacity / num_shards), so the
// effective aggregate capacity can exceed the configured one by up to
// num_shards - 1 entries. total_capacity() must report that honestly.
TEST(ShardedCacheTest, CeilDivisionOverProvisionsAggregateCapacity) {
  ExecTimeCacheConfig cache_config;
  cache_config.capacity = 2000;  // The paper's cache size.
  ShardedExecTimeCache three({cache_config, 3});
  EXPECT_EQ(three.shard_capacity(), 667u);  // ceil(2000 / 3).
  EXPECT_EQ(three.total_capacity(), 2001u);
  EXPECT_GT(three.total_capacity(), cache_config.capacity);

  // num_shards == 1 restores the paper's configuration exactly.
  ShardedExecTimeCache one({cache_config, 1});
  EXPECT_EQ(one.shard_capacity(), 2000u);
  EXPECT_EQ(one.total_capacity(), 2000u);

  // Even division has no over-provisioning.
  ShardedExecTimeCache eight({cache_config, 8});
  EXPECT_EQ(eight.total_capacity(), 2000u);
}

}  // namespace
}  // namespace stage::cache
