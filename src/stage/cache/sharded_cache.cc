#include "stage/cache/sharded_cache.h"

#include <utility>

#include "stage/common/macros.h"
#include "stage/common/serialize.h"

namespace stage::cache {

ShardedExecTimeCache::ShardedExecTimeCache(
    const ShardedExecTimeCacheConfig& config) {
  STAGE_CHECK(config.num_shards > 0);
  STAGE_CHECK(config.cache.capacity > 0);
  shard_config_ = config.cache;
  shard_config_.capacity = (config.cache.capacity + config.num_shards - 1) /
                           config.num_shards;
  shards_.reserve(config.num_shards);
  for (size_t i = 0; i < config.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(shard_config_));
  }
}

std::optional<double> ShardedExecTimeCache::Predict(uint64_t key) const {
  const Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.cache.Predict(key);
}

std::optional<ExecTimeCache::Entry> ShardedExecTimeCache::Lookup(
    uint64_t key) const {
  const Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const ExecTimeCache::Entry* entry = shard.cache.Lookup(key);
  if (entry == nullptr) return std::nullopt;
  return *entry;
}

bool ShardedExecTimeCache::Observe(uint64_t key, double exec_time,
                                   uint64_t tick) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const bool was_cached = shard.cache.Contains(key);
  shard.cache.Observe(key, exec_time, tick);
  return was_cached;
}

size_t ShardedExecTimeCache::shard_capacity() const {
  return shards_.front()->cache.capacity();
}

size_t ShardedExecTimeCache::total_capacity() const {
  return shards_.size() * shard_capacity();
}

uint64_t ShardedExecTimeCache::hits() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->cache.hits();
  return total;
}

uint64_t ShardedExecTimeCache::misses() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->cache.misses();
  return total;
}

uint64_t ShardedExecTimeCache::evictions() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->cache.evictions();
  }
  return total;
}

ShardedExecTimeCache::ShardStats ShardedExecTimeCache::shard_stats(
    size_t shard_index) const {
  STAGE_CHECK(shard_index < shards_.size());
  const Shard& shard = *shards_[shard_index];
  std::lock_guard<std::mutex> lock(shard.mutex);
  ShardStats stats;
  stats.hits = shard.cache.hits();
  stats.misses = shard.cache.misses();
  stats.evictions = shard.cache.evictions();
  stats.entries = shard.cache.size();
  return stats;
}

size_t ShardedExecTimeCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->cache.size();
  }
  return total;
}

namespace {
constexpr uint32_t kShardedMagic = 0x53534843;  // "SSHC".
constexpr uint32_t kShardedVersion = 1;
}  // namespace

void ShardedExecTimeCache::Save(std::ostream& out) const {
  WriteHeader(out, kShardedMagic, kShardedVersion);
  WritePod<uint64_t>(out, shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->cache.Save(out);
  }
}

bool ShardedExecTimeCache::Load(std::istream& in) {
  Staged staged;
  if (!Parse(in, &staged)) return false;
  Commit(std::move(staged));
  return true;
}

bool ShardedExecTimeCache::Parse(std::istream& in, Staged* staged) const {
  if (!ReadHeader(in, kShardedMagic, kShardedVersion)) return false;
  uint64_t num_shards = 0;
  if (!ReadPod(in, &num_shards) || num_shards != shards_.size()) return false;
  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards.push_back(std::make_unique<Shard>(shard_config_));
    if (!shards.back()->cache.Load(in)) return false;
  }
  staged->shards_ = std::move(shards);
  return true;
}

void ShardedExecTimeCache::Commit(Staged&& staged) {
  STAGE_CHECK(staged.shards_.size() == shards_.size());
  shards_ = std::move(staged.shards_);
}

size_t ShardedExecTimeCache::MemoryBytes() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->cache.MemoryBytes();
  }
  return total;
}

}  // namespace stage::cache
