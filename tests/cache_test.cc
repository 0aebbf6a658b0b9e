#include <optional>

#include <gtest/gtest.h>

#include "stage/cache/exec_time_cache.h"
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
  const std::optional<ExecTimeCache::Entry> entry = cache.Lookup(7);
  ASSERT_TRUE(entry.has_value());
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
    const std::optional<ExecTimeCache::Entry> entry = cache.Lookup(key);
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

// Observe reports whether the key was cached before the observation (the
// §4.3 pool-deduplication signal), including for a key that was cached
// once and then evicted.
TEST(ExecTimeCacheTest, ObserveReportsWhetherKeyWasCached) {
  ExecTimeCache cache(SmallConfig(2));
  EXPECT_FALSE(cache.Observe(1, 1.0, 1));
  EXPECT_TRUE(cache.Observe(1, 2.0, 2));
  EXPECT_FALSE(cache.Observe(2, 1.0, 3));
  EXPECT_FALSE(cache.Observe(3, 1.0, 4));  // Evicts key 1.
  EXPECT_FALSE(cache.Observe(1, 1.0, 5));  // Evicts key 2.
  EXPECT_TRUE(cache.Observe(3, 1.0, 6));
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_EQ(cache.hits(), 0u);  // Observe counts no hit or miss.
  EXPECT_EQ(cache.misses(), 0u);
}

// Lookup hands out a copy: later observations do not reach it.
TEST(ExecTimeCacheTest, LookupReturnsACopy) {
  ExecTimeCache cache(SmallConfig());
  EXPECT_FALSE(cache.Lookup(1).has_value());
  cache.Observe(1, 1.0, 1);
  const std::optional<ExecTimeCache::Entry> before = cache.Lookup(1);
  cache.Observe(1, 5.0, 2);
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->stats.count(), 1u);
  EXPECT_EQ(before->last_exec_time, 1.0);
  EXPECT_EQ(cache.Lookup(1)->last_exec_time, 5.0);
  EXPECT_EQ(cache.hits() + cache.misses(), 0u);
}

}  // namespace
}  // namespace stage::cache
