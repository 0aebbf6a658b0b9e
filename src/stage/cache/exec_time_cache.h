#ifndef STAGE_CACHE_EXEC_TIME_CACHE_H_
#define STAGE_CACHE_EXEC_TIME_CACHE_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "stage/common/stats.h"

namespace stage::cache {

struct ExecTimeCacheConfig {
  // Maximum number of unique queries kept (the paper uses 2,000; §5.1).
  size_t capacity = 2000;
  // Prediction blend: alpha * running_mean + (1 - alpha) * last_observed.
  // alpha = 0.8 "works well for the Redshift fleet" (§4.2); 1 predicts the
  // running mean only, 0 the last observation only.
  double alpha = 0.8;
};

// Stage 1 of the Stage predictor (§4.2): a memo of recently executed
// queries. Keys are 64-bit hashes of the 33-dim flattened plan vector
// (Optimization 1); each entry holds three O(1) values instead of the
// latency history (Optimization 2): a Welford running mean/variance, the
// most recent exec-time and the tick of that update. A hit predicts
// alpha * mean + (1 - alpha) * last. Eviction removes the entry whose
// latest observation is oldest ("least updated", not least *used*).
//
// One instance's one cache, as in the paper: every member that reads or
// writes the entries takes one mutex for the (sub-microsecond) map
// operation, so Predict, Observe and the snapshot calls are safe against
// each other. The hit/miss/eviction counters are atomics a metrics scrape
// reads without the lock.
class ExecTimeCache {
 public:
  explicit ExecTimeCache(const ExecTimeCacheConfig& config);

  // Cached per-query statistics: 40 bytes on x86-64.
  struct Entry {
    Welford stats;
    double last_exec_time = 0.0;
    uint64_t last_update_tick = 0;
  };

  // Predicted exec-time for a key, or nullopt on a miss; counts a hit or a
  // miss exactly once.
  std::optional<double> Predict(uint64_t key) const;

  // True if the key is cached (no counter side effects).
  bool Contains(uint64_t key) const;

  // Copy of the entry for `key`, or nullopt on a miss; counts nothing.
  std::optional<Entry> Lookup(uint64_t key) const;

  // Records an observed execution. `tick` is a monotonically non-decreasing
  // logical timestamp (e.g. the query's completion time); it drives the
  // eviction order. Evicts the least-recently-updated entry when a new key
  // would exceed capacity. Returns true when the key was cached *before*
  // this observation — the §4.3 pool-deduplication signal, checked and
  // updated under one lock so callers need no separate Contains.
  bool Observe(uint64_t key, double exec_time, uint64_t tick);

  size_t size() const;
  size_t capacity() const { return config_.capacity; }
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

  // Approximate resident size (Fig. 9 accounting).
  size_t MemoryBytes() const;

  // Checkpointing. Save writes a 16-byte header, then 48 bytes per entry in
  // eviction order (deterministic across runs and hash-map layouts); Load
  // accepts only this version of the stream, replaces the entry set
  // transactionally and rebuilds the eviction index, so a restored cache
  // predicts and evicts bit-for-bit like the original. Telemetry counters
  // (hits/misses/evictions) are deliberately not persisted and restart at
  // zero. Load returns false — leaving the cache untouched — on a
  // malformed stream, an entry no real history can produce (a negative or
  // non-finite mean or last exec-time), or when the snapshot exceeds the
  // configured capacity.
  void Save(std::ostream& out) const;
  bool Load(std::istream& in);

 private:
  using Entries = std::unordered_map<uint64_t, Entry>;
  // Eviction index ordered by (last_update_tick, key); the begin() element
  // is the least-recently-updated query.
  using EvictionIndex = std::map<std::pair<uint64_t, uint64_t>, uint64_t>;

 public:
  // Load in two steps, for a caller restoring several components
  // all-or-nothing: Parse reads a Save stream into `staged` without
  // touching this cache; Commit installs a successfully parsed set.
  class Staged {
    friend class ExecTimeCache;
    Entries entries_;
    EvictionIndex by_update_time_;
  };
  bool Parse(std::istream& in, Staged* staged) const;
  void Commit(Staged&& staged);

 private:
  const ExecTimeCacheConfig config_;
  mutable std::mutex mutex_;
  Entries entries_;               // Guarded by mutex_.
  EvictionIndex by_update_time_;  // Guarded by mutex_.
  // Mutable + atomic so the const read path can count and a metrics scrape
  // can read without taking the lock.
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace stage::cache

#endif  // STAGE_CACHE_EXEC_TIME_CACHE_H_
