#include "stage/cache/exec_time_cache.h"

#include <cmath>
#include <utility>

#include "stage/common/macros.h"
#include "stage/common/serialize.h"

namespace stage::cache {

ExecTimeCache::ExecTimeCache(const ExecTimeCacheConfig& config)
    : config_(config) {
  STAGE_CHECK(config.capacity > 0);
  STAGE_CHECK(config.alpha >= 0.0 && config.alpha <= 1.0);
}

std::optional<double> ExecTimeCache::Predict(uint64_t key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  const Entry& entry = it->second;
  // mu * alpha + t_k * (1 - alpha): the running mean captures robustness to
  // load variance, the last observation captures data freshness (§4.2).
  return entry.stats.mean() * config_.alpha +
         entry.last_exec_time * (1.0 - config_.alpha);
}

bool ExecTimeCache::Contains(uint64_t key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.find(key) != entries_.end();
}

std::optional<ExecTimeCache::Entry> ExecTimeCache::Lookup(uint64_t key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

bool ExecTimeCache::Observe(uint64_t key, double exec_time, uint64_t tick) {
  STAGE_CHECK(exec_time >= 0.0);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  const bool was_cached = it != entries_.end();
  if (was_cached) {
    by_update_time_.erase({it->second.last_update_tick, key});
  } else {
    if (entries_.size() >= config_.capacity) {
      // Evict the entry whose most recent observation is oldest.
      const auto victim = by_update_time_.begin();
      entries_.erase(victim->second);
      by_update_time_.erase(victim);
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    it = entries_.emplace(key, Entry{}).first;
  }
  Entry& entry = it->second;
  entry.stats.Add(exec_time);
  entry.last_exec_time = exec_time;
  entry.last_update_tick = tick;
  by_update_time_.emplace(std::make_pair(tick, key), key);
  return was_cached;
}

size_t ExecTimeCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

namespace {
constexpr uint32_t kCacheMagic = 0x53434348;  // "SCCH".
constexpr uint32_t kCacheVersion = 2;
// key + Welford (count, mean, M2) + last exec-time + tick.
constexpr uint64_t kEntryBytes = 6 * sizeof(uint64_t);
}  // namespace

void ExecTimeCache::Save(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  WriteHeader(out, kCacheMagic, kCacheVersion);
  WritePod<uint64_t>(out, entries_.size());
  // Walk the eviction index, not the hash map: the on-disk order is then
  // deterministic (ascending last-update tick) regardless of hash-map
  // layout, so identical cache states produce identical snapshot bytes.
  for (const auto& [tick_key, key] : by_update_time_) {
    const auto it = entries_.find(key);
    STAGE_CHECK(it != entries_.end());
    const Entry& entry = it->second;
    WritePod(out, key);
    entry.stats.Save(out);
    WritePod(out, entry.last_exec_time);
    WritePod(out, entry.last_update_tick);
  }
}

bool ExecTimeCache::Load(std::istream& in) {
  Staged staged;
  if (!Parse(in, &staged)) return false;
  Commit(std::move(staged));
  return true;
}

bool ExecTimeCache::Parse(std::istream& in, Staged* staged) const {
  if (!ReadHeader(in, kCacheMagic, kCacheVersion)) return false;
  uint64_t count = 0;
  if (!ReadPod(in, &count)) return false;
  if (count > config_.capacity) return false;  // Config mismatch.
  // Bound the loop by the remaining stream so a corrupt count fails fast.
  const std::optional<uint64_t> remaining = RemainingBytes(in);
  if (remaining && count > *remaining / kEntryBytes) return false;
  Entries entries;
  EvictionIndex by_update_time;
  entries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t key = 0;
    Entry entry;
    if (!ReadPod(in, &key) || !entry.stats.Load(in) ||
        !ReadPod(in, &entry.last_exec_time) ||
        !ReadPod(in, &entry.last_update_tick)) {
      return false;
    }
    // Exec times are >= 0, so the mean and last of a real history are too;
    // anything else would be served as a negative prediction on a hit.
    if (!std::isfinite(entry.last_exec_time) || entry.last_exec_time < 0.0 ||
        entry.stats.mean() < 0.0) {
      return false;
    }
    if (!entries.emplace(key, entry).second) return false;  // Duplicate key.
    by_update_time.emplace(std::make_pair(entry.last_update_tick, key), key);
  }
  staged->entries_ = std::move(entries);
  staged->by_update_time_ = std::move(by_update_time);
  return true;
}

void ExecTimeCache::Commit(Staged&& staged) {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_ = std::move(staged.entries_);
  by_update_time_ = std::move(staged.by_update_time_);
  // Telemetry (hits/misses/evictions) intentionally restarts at zero: the
  // counters describe a process lifetime, not the cached state.
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
}

size_t ExecTimeCache::MemoryBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Hash-map node: key + Entry + bucket overhead; tree node: key pair +
  // value + red-black overhead. Approximate with struct sizes + 2 pointers.
  const size_t map_node =
      sizeof(uint64_t) + sizeof(Entry) + 2 * sizeof(void*);
  const size_t tree_node = sizeof(std::pair<std::pair<uint64_t, uint64_t>,
                                            uint64_t>) +
                           3 * sizeof(void*);
  return entries_.size() * map_node + by_update_time_.size() * tree_node;
}

}  // namespace stage::cache
