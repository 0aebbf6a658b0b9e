#ifndef STAGE_CACHE_SHARDED_CACHE_H_
#define STAGE_CACHE_SHARDED_CACHE_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "stage/cache/exec_time_cache.h"

namespace stage::cache {

struct ShardedExecTimeCacheConfig {
  // Per-entry behaviour of every shard. `cache.capacity` is the TOTAL
  // capacity across shards; each shard gets ceil(capacity / num_shards).
  //
  // Divergence from the paper's single 2,000-entry cache (§4.2, §5.1):
  // ceil-division can over-provision by up to num_shards-1 entries in
  // aggregate (e.g. 2000 over 3 shards -> 3 x 667 = 2001), and because each
  // shard evicts independently over its own key subset, a skewed key
  // distribution can evict from a hot shard while cold shards sit below
  // capacity — earlier than one global least-recently-updated cache would.
  // total_capacity() reports the effective aggregate cap so callers can
  // account for both effects; num_shards == 1 restores the paper exactly.
  ExecTimeCacheConfig cache;
  size_t num_shards = 8;
};

// Concurrency front for the §4.2 exec-time cache: N independent
// ExecTimeCache shards, each behind its own mutex, keyed by
// `feature_hash % num_shards`. Concurrent lookups on different shards never
// serialize; a lookup racing an observation on the same shard takes the
// shard lock for the (sub-microsecond) map operation. Aggregate counters
// (hits/misses/evictions/size) are preserved as sums over shards, so a
// sharded predictor reports the same cache telemetry as a single
// ExecTimeCache. With num_shards == 1 the behaviour — including eviction
// order — is bit-for-bit identical to a bare ExecTimeCache.
class ShardedExecTimeCache {
 public:
  explicit ShardedExecTimeCache(const ShardedExecTimeCacheConfig& config);

  // Thread-safe cache lookup; counts a hit or miss exactly once.
  std::optional<double> Predict(uint64_t key) const;

  // Copy of the entry for `key` taken under its shard lock (nullopt on a
  // miss); counts nothing.
  std::optional<ExecTimeCache::Entry> Lookup(uint64_t key) const;

  // Records an observed execution. Returns true when the key was already
  // cached *before* this observation (the §4.3 pool-deduplication signal),
  // checked and updated under one shard lock so callers need no separate
  // Contains round trip.
  bool Observe(uint64_t key, double exec_time, uint64_t tick);

  size_t num_shards() const { return shards_.size(); }
  size_t shard_capacity() const;
  // Effective aggregate capacity: num_shards * shard_capacity. Can exceed
  // the configured `cache.capacity` by up to num_shards - 1 entries (see
  // the config comment on the sharding divergence).
  size_t total_capacity() const;

  // Aggregates over all shards. Counter reads are lock-free; size and
  // memory walk the shards under their locks.
  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t evictions() const;
  size_t size() const;
  size_t MemoryBytes() const;

  // Consistent point-in-time view of one shard's telemetry, taken under
  // that shard's lock (per-shard metrics exposition).
  struct ShardStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
  };
  ShardStats shard_stats(size_t shard_index) const;

  // Checkpointing. Save serializes shard-by-shard, holding only one shard
  // lock at a time, so concurrent lookups on other shards never stall.
  // Load requires the same shard count (shard membership is key %
  // num_shards; re-sharding a snapshot would silently reorder evictions),
  // stages a fresh shard set, and commits only on full success. Load must
  // not race with readers or writers — restore before serving starts.
  void Save(std::ostream& out) const;
  bool Load(std::istream& in);

 private:
  struct Shard {
    explicit Shard(const ExecTimeCacheConfig& config) : cache(config) {}
    mutable std::mutex mutex;
    ExecTimeCache cache;
  };

 public:
  // Load in two steps, for a caller restoring several components
  // all-or-nothing: Parse reads a Save stream into `staged` without
  // touching this cache; Commit installs a successfully parsed set.
  class Staged {
    friend class ShardedExecTimeCache;
    std::vector<std::unique_ptr<Shard>> shards_;
  };
  bool Parse(std::istream& in, Staged* staged) const;
  void Commit(Staged&& staged);

 private:
  const Shard& ShardFor(uint64_t key) const {
    return *shards_[key % shards_.size()];
  }
  Shard& ShardFor(uint64_t key) { return *shards_[key % shards_.size()]; }

  ExecTimeCacheConfig shard_config_;  // Per-shard (divided) capacity.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace stage::cache

#endif  // STAGE_CACHE_SHARDED_CACHE_H_
