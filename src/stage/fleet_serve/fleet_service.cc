#include "stage/fleet_serve/fleet_service.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "stage/common/macros.h"

namespace stage::fleet_serve {

namespace {

uint64_t ElapsedNanos(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

void SetError(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

const FleetServiceConfig& Validated(const FleetServiceConfig& config) {
  const std::string error = config.Validate();
  STAGE_CHECK_MSG(error.empty(), error.c_str());
  return config;
}

}  // namespace

std::string FleetServiceConfig::Validate() const {
  if (async_retrain && max_concurrent_trainings == 0) {
    return "max_concurrent_trainings must be positive with async_retrain";
  }
  return stack.predictor.Validate();
}

FleetService::FleetService(const FleetServiceConfig& config,
                           const FleetServiceOptions& options)
    : config_(Validated(config)),
      options_(options),
      budget_(config.resident_bytes_budget) {
  if (options_.metrics != nullptr) RegisterFleetMetrics();
  if (config_.async_retrain) {
    train_workers_.reserve(config_.max_concurrent_trainings);
    for (size_t i = 0; i < config_.max_concurrent_trainings; ++i) {
      train_workers_.emplace_back([this] { TrainWorkerLoop(); });
    }
  }
}

FleetService::~FleetService() {
  {
    std::lock_guard<std::mutex> lock(train_mutex_);
    stopping_ = true;
  }
  train_cv_.notify_all();
  for (std::thread& worker : train_workers_) worker.join();
  // Drop every render-time callback before registry state dies: fleet-level
  // tags, then each tenant's owner tag. (TenantStacks unregister their own
  // per-stack families in their destructors.)
  if (options_.metrics != nullptr) {
    options_.metrics->UnregisterAll(this);
    for (const auto& [id, entry] : tenants_) {
      options_.metrics->UnregisterAll(entry.get());
    }
  }
}

void FleetService::RegisterFleetMetrics() {
  obs::MetricsRegistry* registry = options_.metrics;
  const std::string& prefix = options_.metrics_prefix;
  registry->RegisterCounterCallback(this, prefix + "fleet_evictions_total",
                                    [this] { return evictions(); });
  registry->RegisterCounterCallback(
      this, prefix + "fleet_cold_activations_total",
      [this] { return cold_activations(); });
  registry->RegisterCounterCallback(
      this, prefix + "fleet_snapshot_fallbacks_total",
      [this] { return snapshot_fallbacks(); });
  registry->RegisterGaugeCallback(
      this, prefix + "fleet_resident_bytes",
      [this] { return static_cast<double>(ResidentBytes()); });
  registry->RegisterGaugeCallback(
      this, prefix + "fleet_warm_tenants",
      [this] { return static_cast<double>(WarmCount()); });
  registry->RegisterGaugeCallback(
      this, prefix + "fleet_tenants",
      [this] { return static_cast<double>(TenantCount()); });
  const std::array<std::pair<size_t, const char*>, 3> slots = {{
      {kActivationFromParked, "parked"},
      {kActivationFromFile, "file"},
      {kActivationFresh, "fresh"},
  }};
  for (const auto& [slot, label] : slots) {
    registry->RegisterHistogramCallback(
        this,
        prefix + "fleet_activation_latency_ns{source=\"" +
            std::string(label) + "\"}",
        [this, slot = slot] {
          return activation_latency_.histogram_snapshot(slot);
        });
  }
}

void FleetService::RegisterTenantMetrics(Entry& entry) {
  // Called during the activation transition, OUTSIDE registry_mutex_ (the
  // obs registry lock must stay a leaf). The callbacks read only entry
  // atomics, and the entry outlives the service, so a scrape can never
  // race dead state; UnregisterAll(&entry) at eviction removes the tag.
  obs::MetricsRegistry* registry = options_.metrics;
  if (registry == nullptr) return;
  const std::string label =
      "{tenant=\"" + std::to_string(entry.id) + "\"}";
  const std::string& prefix = options_.metrics_prefix;
  registry->RegisterCounterCallback(
      &entry, prefix + "tenant_predictions_total" + label, [&entry] {
        return entry.predictions.load(std::memory_order_relaxed);
      });
  registry->RegisterGaugeCallback(
      &entry, prefix + "tenant_resident_bytes" + label, [&entry] {
        return static_cast<double>(
            entry.resident_bytes.load(std::memory_order_relaxed));
      });
  registry->RegisterCounterCallback(
      &entry, prefix + "tenant_cold_activations_total" + label, [&entry] {
        return entry.tenant_cold_activations.load(std::memory_order_relaxed);
      });
}

void FleetService::RegisterTenant(TenantId tenant,
                                  const core::StagePredictorOptions& options,
                                  const TenantStackConfig* config_override) {
  auto entry = std::make_unique<Entry>();
  entry->id = tenant;
  entry->config = config_override != nullptr ? *config_override : config_.stack;
  const std::string error = entry->config.predictor.Validate();
  STAGE_CHECK_MSG(error.empty(), error.c_str());
  entry->options = options;
  std::unique_lock<std::shared_mutex> lock(registry_mutex_);
  const bool inserted = tenants_.emplace(tenant, std::move(entry)).second;
  STAGE_CHECK_MSG(inserted, "tenant already registered");
  tenant_count_.fetch_add(1, std::memory_order_relaxed);
}

bool FleetService::IsRegistered(TenantId tenant) const {
  std::shared_lock<std::shared_mutex> lock(registry_mutex_);
  return tenants_.find(tenant) != tenants_.end();
}

std::vector<TenantId> FleetService::TenantIds() const {
  std::shared_lock<std::shared_mutex> lock(registry_mutex_);
  std::vector<TenantId> ids;
  ids.reserve(tenants_.size());
  for (const auto& [id, entry] : tenants_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

bool FleetService::IsWarm(TenantId tenant) const {
  std::shared_lock<std::shared_mutex> lock(registry_mutex_);
  const Entry* entry = FindEntryLocked(tenant);
  return entry != nullptr && entry->stack != nullptr;
}

FleetService::Entry* FleetService::FindEntryLocked(TenantId tenant) const {
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? nullptr : it->second.get();
}

FleetService::OpGuard FleetService::AcquireWarm(TenantId tenant,
                                                bool* cold_activated) {
  {
    // Warm fast path: a shared lock, a pointer copy, an op pin, and an
    // LRU-tick store. `stack` non-null under any flavor of the lock means
    // no transition is touching the entry (transitions null the pointer
    // and set the flag in one exclusive critical section).
    std::shared_lock<std::shared_mutex> lock(registry_mutex_);
    Entry* entry = FindEntryLocked(tenant);
    STAGE_CHECK_MSG(entry != nullptr, "unknown tenant");
    if (entry->stack != nullptr) {
      entry->active_ops.fetch_add(1, std::memory_order_acquire);
      entry->last_used_tick.store(
          lru_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
      return OpGuard(entry->stack, entry);
    }
  }
  // Cold path: wait out any in-flight transition, then either ride a
  // concurrent activation's result or own the activation ourselves.
  std::unique_lock<std::shared_mutex> lock(registry_mutex_);
  Entry* entry = FindEntryLocked(tenant);
  STAGE_CHECK_MSG(entry != nullptr, "unknown tenant");
  while (entry->transitioning) transition_cv_.wait(lock);
  std::shared_ptr<TenantStack> stack = entry->stack;
  if (stack == nullptr) {
    stack = ActivateLocked(lock, *entry);
    if (cold_activated != nullptr) *cold_activated = true;
  }
  entry->active_ops.fetch_add(1, std::memory_order_acquire);
  entry->last_used_tick.store(
      lru_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
      std::memory_order_relaxed);
  return OpGuard(std::move(stack), entry);
}

FleetService::OpGuard FleetService::TryAcquireWarm(TenantId tenant) {
  std::shared_lock<std::shared_mutex> lock(registry_mutex_);
  Entry* entry = FindEntryLocked(tenant);
  if (entry == nullptr || entry->stack == nullptr) return OpGuard();
  entry->active_ops.fetch_add(1, std::memory_order_acquire);
  entry->last_used_tick.store(
      lru_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
      std::memory_order_relaxed);
  return OpGuard(entry->stack, entry);
}

std::shared_ptr<TenantStack> FleetService::ActivateLocked(
    std::unique_lock<std::shared_mutex>& lock, Entry& entry) {
  STAGE_CHECK(!entry.transitioning && entry.stack == nullptr);
  entry.transitioning = true;
  lock.unlock();
  // The transition flag makes this thread the exclusive owner of the
  // entry's parked fields until it clears the flag.
  const auto start = std::chrono::steady_clock::now();
  auto stack = std::make_shared<TenantStack>(entry.config, entry.options);
  size_t latency_slot = kActivationFresh;
  if (entry.has_parked) {
    // The stream takes the parked bytes over instead of copying them.
    std::istringstream in(std::move(entry.parked_state));
    std::string error;
    const bool ok = stack->LoadState(in, &error);
    STAGE_CHECK_MSG(ok, error.c_str());
    stack->SeedSourceCounts(entry.parked_counts);
    std::string().swap(entry.parked_state);  // Moved-from: leave it empty.
    entry.has_parked = false;
    latency_slot = kActivationFromParked;
  } else {
    std::lock_guard<std::mutex> snapshot_lock(snapshot_mutex_);
    if (has_snapshot_ && snapshot_.Contains(entry.id)) {
      // The whole point of the indexed layout: ONE tenant's payload is
      // seeked and read; the rest of the fleet file is never touched.
      std::string payload;
      bool ok = snapshot_.ReadTenant(entry.id, &payload);
      if (ok) {
        std::istringstream in(std::move(payload));
        ok = stack->LoadState(in);
      }
      if (ok) {
        latency_slot = kActivationFromFile;
      } else {
        // Unlike parked bytes, a file can be corrupt or written under
        // another stack config; one bad payload must not take the process
        // down. Serve the tenant from a fresh stack instead (the old one is
        // released first so its metric callbacks are gone before the
        // replacement registers the same names).
        stack.reset();
        stack = std::make_shared<TenantStack>(entry.config, entry.options);
        snapshot_fallbacks_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  const size_t fresh_bytes = stack->ApproxResidentBytes();
  activation_latency_.Record(latency_slot, ElapsedNanos(start));
  cold_activations_.fetch_add(1, std::memory_order_relaxed);
  entry.tenant_cold_activations.fetch_add(1, std::memory_order_relaxed);
  RegisterTenantMetrics(entry);
  lock.lock();
  entry.stack = stack;
  entry.transitioning = false;
  warm_count_.fetch_add(1, std::memory_order_relaxed);
  AccountResidentBytes(entry, fresh_bytes);
  transition_cv_.notify_all();
  return stack;
}

bool FleetService::EvictLocked(std::unique_lock<std::shared_mutex>& lock,
                               Entry& entry, std::string* error) {
  if (entry.stack == nullptr) {
    SetError(error, "tenant is not warm");
    return false;
  }
  if (entry.pinned) {
    SetError(error, "tenant is pinned");
    return false;
  }
  if (entry.active_ops.load(std::memory_order_acquire) != 0) {
    SetError(error, "tenant has operations in flight");
    return false;
  }
  // Detach under the exclusive lock: from here no new op can pin the
  // stack (AcquireWarm sees a cold entry and waits on the transition), and
  // active_ops == 0 says no old op still holds it — this thread owns the
  // only reference that matters.
  entry.transitioning = true;
  std::shared_ptr<TenantStack> stack = std::move(entry.stack);
  entry.stack = nullptr;
  lock.unlock();

  std::ostringstream out;
  std::string save_error;
  const bool saved = stack->SaveState(out, &save_error);
  STAGE_CHECK_MSG(saved, save_error.c_str());
  const auto counts = stack->SourceCounts();
  stack.reset();  // Free the live stack before re-entering the lock.
  // Drop the tenant's owner-tagged callbacks while we exclusively own the
  // transition (obs registry lock stays a leaf; see RegisterTenantMetrics).
  if (options_.metrics != nullptr) options_.metrics->UnregisterAll(&entry);

  lock.lock();
  entry.parked_state = std::move(out).str();
  entry.parked_counts = counts;
  entry.has_parked = true;
  entry.transitioning = false;
  warm_count_.fetch_sub(1, std::memory_order_relaxed);
  AccountResidentBytes(entry, 0);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  transition_cv_.notify_all();
  return true;
}

void FleetService::EnforceBudgetLocked(
    std::unique_lock<std::shared_mutex>& lock, size_t budget) {
  while (budget != 0 &&
         resident_bytes_.load(std::memory_order_relaxed) > budget) {
    // LRU victim: the least recently used warm entry that is idle,
    // unpinned, and not mid-transition. Rescan each round — EvictLocked
    // drops the lock, so the candidate set can shift underneath us.
    Entry* victim = nullptr;
    uint64_t victim_tick = 0;
    for (const auto& [id, entry] : tenants_) {
      if (entry->stack == nullptr || entry->pinned || entry->transitioning) {
        continue;
      }
      if (entry->active_ops.load(std::memory_order_acquire) != 0) continue;
      const uint64_t tick =
          entry->last_used_tick.load(std::memory_order_relaxed);
      if (victim == nullptr || tick < victim_tick) {
        victim = entry.get();
        victim_tick = tick;
      }
    }
    if (victim == nullptr) return;  // Everything left is busy or pinned.
    if (!EvictLocked(lock, *victim, nullptr)) return;
  }
}

void FleetService::MaybeEnforceBudget() {
  const size_t budget = budget_.load(std::memory_order_relaxed);
  if (budget == 0 ||
      resident_bytes_.load(std::memory_order_relaxed) <= budget) {
    return;
  }
  std::unique_lock<std::shared_mutex> lock(registry_mutex_);
  EnforceBudgetLocked(lock, budget_.load(std::memory_order_relaxed));
}

void FleetService::AccountResidentBytes(Entry& entry, size_t fresh_bytes) {
  const size_t old_bytes =
      entry.resident_bytes.exchange(fresh_bytes, std::memory_order_relaxed);
  // Unsigned wraparound makes the delta add correct in both directions.
  resident_bytes_.fetch_add(fresh_bytes - old_bytes,
                            std::memory_order_relaxed);
}

core::Prediction FleetService::Predict(TenantId tenant,
                                       const core::QueryContext& query,
                                       bool* cold_activated) {
  return PredictTraced(tenant, query, nullptr, cold_activated);
}

core::Prediction FleetService::PredictTraced(TenantId tenant,
                                             const core::QueryContext& query,
                                             obs::PredictionTrace* trace,
                                             bool* cold_activated) {
  core::Prediction out;
  {
    OpGuard guard = AcquireWarm(tenant, cold_activated);
    out = guard.stack->PredictTraced(query, trace);
    guard.entry->predictions.fetch_add(1, std::memory_order_relaxed);
  }
  MaybeEnforceBudget();
  return out;
}

void FleetService::Observe(TenantId tenant, const core::QueryContext& query,
                           double exec_seconds) {
  {
    OpGuard guard = AcquireWarm(tenant, nullptr);
    const bool wants_retrain = guard.stack->Observe(
        query, exec_seconds, /*inline_retrain=*/!config_.async_retrain);
    AccountResidentBytes(*guard.entry, guard.stack->ApproxResidentBytes());
    if (wants_retrain) ScheduleRetrain(tenant);
  }
  MaybeEnforceBudget();
}

std::shared_ptr<TenantStack> FleetService::PinTenant(TenantId tenant) {
  OpGuard guard = AcquireWarm(tenant, nullptr);
  {
    std::unique_lock<std::shared_mutex> lock(registry_mutex_);
    guard.entry->pinned = true;
  }
  return guard.stack;
}

bool FleetService::EvictTenant(TenantId tenant, std::string* error) {
  std::unique_lock<std::shared_mutex> lock(registry_mutex_);
  Entry* entry = FindEntryLocked(tenant);
  if (entry == nullptr) {
    SetError(error, "unknown tenant");
    return false;
  }
  while (entry->transitioning) transition_cv_.wait(lock);
  return EvictLocked(lock, *entry, error);
}

bool FleetService::AttachSnapshot(const std::string& path,
                                  std::string* error) {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  if (!snapshot_.Open(path, error)) return false;
  has_snapshot_ = true;
  return true;
}

bool FleetService::SaveSnapshot(const std::string& path, std::string* error) {
  std::unique_lock<std::shared_mutex> lock(registry_mutex_);
  // Wait out in-flight transitions so every tenant is cleanly warm or
  // cleanly parked for the duration of the cut (the exclusive lock then
  // blocks new transitions; in-flight ops on warm stacks are fine — each
  // stack's SaveState pins its own consistent Observe boundary).
  for (bool any = true; any;) {
    any = false;
    for (const auto& [id, entry] : tenants_) {
      if (entry->transitioning) {
        any = true;
        transition_cv_.wait(lock);
        break;
      }
    }
  }
  std::vector<std::pair<TenantId, std::string>> payloads;
  payloads.reserve(tenants_.size());
  std::vector<TenantId> ids;
  ids.reserve(tenants_.size());
  for (const auto& [id, entry] : tenants_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (const TenantId id : ids) {
    Entry* entry = FindEntryLocked(id);
    if (entry->stack != nullptr) {
      std::ostringstream out;
      if (!entry->stack->SaveState(out, error)) return false;
      payloads.emplace_back(id, std::move(out).str());
    } else if (entry->has_parked) {
      payloads.emplace_back(id, entry->parked_state);
    } else {
      std::lock_guard<std::mutex> snapshot_lock(snapshot_mutex_);
      if (has_snapshot_ && snapshot_.Contains(id)) {
        std::string payload;
        if (!snapshot_.ReadTenant(id, &payload, error)) return false;
        payloads.emplace_back(id, std::move(payload));
      }
      // Never-activated tenants without snapshot state stay out of the
      // file: they cold-activate fresh, which is what they are.
    }
  }
  return WriteFleetSnapshotFile(path, payloads, error);
}

void FleetService::ScheduleRetrain(TenantId tenant) {
  bool notify = false;
  {
    std::lock_guard<std::mutex> lock(train_mutex_);
    if (train_running_.count(tenant) != 0) {
      // Coalesce into exactly one follow-up run after the current one.
      train_rerequested_.insert(tenant);
    } else if (train_queued_.insert(tenant).second) {
      train_queue_.push_back(tenant);
      notify = true;
    }
  }
  if (notify) train_cv_.notify_one();
}

void FleetService::TrainWorkerLoop() {
  std::unique_lock<std::mutex> lock(train_mutex_);
  while (true) {
    train_cv_.wait(lock,
                   [this] { return stopping_ || !train_queue_.empty(); });
    if (stopping_) return;
    const TenantId tenant = train_queue_.front();
    train_queue_.pop_front();
    train_queued_.erase(tenant);
    train_running_.insert(tenant);
    ++trainings_in_flight_;
    lock.unlock();
    {
      // A tenant evicted between scheduling and execution stays parked:
      // waking it just to train would defeat the eviction. Its cadence
      // re-requests naturally once it is warm and observing again.
      OpGuard guard = TryAcquireWarm(tenant);
      if (guard.stack != nullptr) {
        guard.stack->TrainOnce();
        AccountResidentBytes(*guard.entry,
                             guard.stack->ApproxResidentBytes());
      }
    }
    MaybeEnforceBudget();
    lock.lock();
    train_running_.erase(tenant);
    --trainings_in_flight_;
    if (train_rerequested_.erase(tenant) != 0) {
      if (train_queued_.insert(tenant).second) {
        train_queue_.push_back(tenant);
        train_cv_.notify_one();
      }
    }
    train_idle_cv_.notify_all();
  }
}

void FleetService::WaitForRetrain() {
  if (!config_.async_retrain) return;
  std::unique_lock<std::mutex> lock(train_mutex_);
  train_idle_cv_.wait(lock, [this] {
    return train_queue_.empty() && trainings_in_flight_ == 0;
  });
}

void FleetService::SetResidentBytesBudget(size_t budget) {
  budget_.store(budget, std::memory_order_relaxed);
  config_.resident_bytes_budget = budget;
  MaybeEnforceBudget();
}

std::array<uint64_t, core::kNumPredictionSources> FleetService::SourceCounts(
    TenantId tenant) const {
  std::unique_lock<std::shared_mutex> lock(registry_mutex_);
  Entry* entry = FindEntryLocked(tenant);
  STAGE_CHECK_MSG(entry != nullptr, "unknown tenant");
  while (entry->transitioning) transition_cv_.wait(lock);
  if (entry->stack != nullptr) return entry->stack->SourceCounts();
  if (entry->has_parked) return entry->parked_counts;
  return {};
}

uint64_t FleetService::TotalPredictions(TenantId tenant) const {
  const auto counts = SourceCounts(tenant);
  uint64_t total = 0;
  for (const uint64_t count : counts) total += count;
  return total;
}

}  // namespace stage::fleet_serve
