// Tests for the stage::fleet_serve registry and its tenant stacks:
// eviction/cold-activation round-trips (bit-for-bit predictions AND
// attribution counters), LRU order under a byte budget, the indexed fleet
// snapshot format and its fallback on bad payloads, the per-tenant cache's
// §4.2 eviction, background retrains, and the concurrency stress tests
// (run under STAGE_SANITIZE=thread to prove the synchronization).
// Single-tenant routing equivalence with the pinned goldens lives in
// golden_routing_test.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "stage/cache/exec_time_cache.h"
#include "stage/common/crc32.h"
#include "stage/core/predictor.h"
#include "stage/fleet/fleet.h"
#include "stage/fleet_serve/fleet_service.h"
#include "stage/fleet_serve/fleet_snapshot.h"
#include "stage/fleet_serve/tenant_stack.h"
#include "stage/global/global_model.h"
#include "stage/obs/metrics.h"

namespace stage::fleet_serve {
namespace {

core::StagePredictorConfig FastStage() {
  core::StagePredictorConfig config;
  config.local.ensemble.num_members = 4;
  config.local.ensemble.member.num_rounds = 40;
  config.min_train_size = 20;
  config.retrain_interval = 100;
  return config;
}

fleet::InstanceTrace MakeTrace(int num_queries, uint64_t seed = 2024) {
  fleet::FleetConfig config;
  config.num_instances = 1;
  config.workload.num_queries = num_queries;
  config.seed = seed;
  fleet::FleetGenerator generator(config);
  return generator.MakeInstanceTrace(0);
}

std::vector<core::QueryContext> MakeContexts(
    const fleet::InstanceTrace& instance) {
  std::vector<core::QueryContext> contexts;
  contexts.reserve(instance.trace.size());
  for (const fleet::QueryEvent& event : instance.trace) {
    contexts.push_back(core::MakeQueryContext(
        event.plan, event.concurrent_queries,
        static_cast<uint64_t>(event.arrival_ms)));
  }
  return contexts;
}

// A small global model trained on `instance`'s own trace: routing, not
// the model's accuracy, is under test.
global::GlobalModel SmallGlobalModel(const fleet::InstanceTrace& instance) {
  std::vector<global::GlobalExample> examples;
  for (const fleet::QueryEvent& event : instance.trace) {
    examples.push_back(global::MakeGlobalExample(
        event.plan, instance.config, event.concurrent_queries,
        event.exec_seconds));
  }
  global::GlobalModelConfig config;
  config.hidden_dim = 16;
  config.num_layers = 2;
  config.head_hidden = {16};
  config.epochs = 2;
  return global::GlobalModel::Train(examples, config);
}

// Deterministic fleet config: inline retrains.
FleetServiceConfig DeterministicFleet() {
  FleetServiceConfig config;
  config.stack.predictor = FastStage();
  config.async_retrain = false;
  return config;
}

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(FleetServiceConfigTest, ValidateRejectsNonsense) {
  FleetServiceConfig config;
  EXPECT_TRUE(config.Validate().empty());

  config.max_concurrent_trainings = 0;
  EXPECT_FALSE(config.Validate().empty());
  config.async_retrain = false;  // Cap only matters for the worker pool.
  EXPECT_TRUE(config.Validate().empty());
  config.async_retrain = true;
  config.max_concurrent_trainings = 2;

  config.stack.predictor.retrain_interval = 0;
  EXPECT_FALSE(config.Validate().empty());
}

// Each tenant owns one §4.2 cache: under the default fleet config a tenant
// serves and evicts exactly like a bare ExecTimeCache fed the same (key,
// tick) stream. Half the keys share one residue mod 8, so a cache split
// into key-residue shards would evict from that residue early.
TEST(FleetServiceTest, TenantCacheEvictsLikeTheSingleCache) {
  FleetServiceConfig config;
  config.stack.predictor.cache.capacity = 16;
  FleetService fleet(config);
  constexpr TenantId kTenant = 5;
  fleet.RegisterTenant(kTenant);
  cache::ExecTimeCache bare(config.stack.predictor.cache);

  // 24 distinct keys (fewer than the default min_train_size, so no
  // retrain starts): 12 multiples of 8, then 12 odd keys.
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 12; ++i) keys.push_back(8 * i);
  for (uint64_t i = 0; i < 12; ++i) keys.push_back(2 * i + 1);
  uint64_t tick = 0;
  for (const uint64_t key : keys) {
    core::QueryContext context;
    context.feature_hash = key;
    context.tick = ++tick;
    const double seconds = 0.5 + static_cast<double>(key);
    fleet.Observe(kTenant, context, seconds);
    bare.Observe(key, seconds, tick);
  }
  for (const uint64_t key : keys) {
    core::QueryContext context;
    context.feature_hash = key;
    const core::Prediction got = fleet.Predict(kTenant, context);
    const std::optional<double> want = bare.Predict(key);
    ASSERT_EQ(got.source == core::PredictionSource::kCache, want.has_value())
        << key;
    if (want) {
      EXPECT_EQ(got.seconds, *want) << key;
    }
  }
  const std::shared_ptr<TenantStack> stack = fleet.PinTenant(kTenant);
  EXPECT_EQ(bare.evictions(), keys.size() - 16);
  EXPECT_EQ(stack->exec_time_cache().evictions(), bare.evictions());
  EXPECT_EQ(stack->exec_time_cache().hits(), bare.hits());
  EXPECT_EQ(stack->exec_time_cache().misses(), bare.misses());
  EXPECT_EQ(stack->exec_time_cache().size(), bare.size());
}

// The eviction-correctness bar: a tenant evicted mid-replay and
// cold-activated from its parked snapshot must finish the replay with
// bit-for-bit identical predictions AND attribution counters to a tenant
// that was never evicted.
TEST(FleetServiceTest, EvictColdActivateIsBitForBit) {
  const fleet::InstanceTrace instance = MakeTrace(900);
  const std::vector<core::QueryContext> contexts = MakeContexts(instance);

  FleetService control(DeterministicFleet());
  FleetService churned(DeterministicFleet());
  constexpr TenantId kTenant = 7;
  control.RegisterTenant(kTenant, {.instance = &instance.config});
  churned.RegisterTenant(kTenant, {.instance = &instance.config});

  const size_t half = contexts.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    control.Predict(kTenant, contexts[i]);
    control.Observe(kTenant, contexts[i], instance.trace[i].exec_seconds);
    churned.Predict(kTenant, contexts[i]);
    churned.Observe(kTenant, contexts[i], instance.trace[i].exec_seconds);
  }

  // Park the churned tenant; the control fleet stays warm throughout.
  std::string error;
  ASSERT_TRUE(churned.EvictTenant(kTenant, &error)) << error;
  EXPECT_FALSE(churned.IsWarm(kTenant));
  EXPECT_EQ(churned.evictions(), 1u);
  // Attribution counters survive the eviction (read from parked state).
  EXPECT_EQ(control.SourceCounts(kTenant), churned.SourceCounts(kTenant));

  for (size_t i = half; i < contexts.size(); ++i) {
    const core::Prediction want = control.Predict(kTenant, contexts[i]);
    bool cold = false;
    const core::Prediction got = churned.Predict(kTenant, contexts[i], &cold);
    if (i == half) {
      EXPECT_TRUE(cold);  // First touch after eviction pays the activation.
    } else {
      EXPECT_FALSE(cold);
    }
    EXPECT_EQ(want.source, got.source) << i;
    EXPECT_DOUBLE_EQ(want.seconds, got.seconds) << i;
    control.Observe(kTenant, contexts[i], instance.trace[i].exec_seconds);
    churned.Observe(kTenant, contexts[i], instance.trace[i].exec_seconds);
  }
  // One fresh activation at first touch (the control pays it too) plus the
  // parked reactivation after the eviction.
  EXPECT_EQ(control.cold_activations(), 1u);
  EXPECT_EQ(churned.cold_activations(), 2u);
  EXPECT_EQ(control.SourceCounts(kTenant), churned.SourceCounts(kTenant));
  EXPECT_EQ(control.TotalPredictions(kTenant),
            churned.TotalPredictions(kTenant));
}

// LRU-order property under a tight byte budget: after enforcement, every
// still-warm tenant was used more recently than every evicted one.
TEST(FleetServiceTest, BudgetEvictsInLruOrder) {
  FleetServiceConfig config = DeterministicFleet();
  FleetService fleet(config);

  constexpr int kTenants = 6;
  const fleet::InstanceTrace instance = MakeTrace(40);
  const std::vector<core::QueryContext> contexts = MakeContexts(instance);
  for (TenantId t = 0; t < kTenants; ++t) {
    fleet.RegisterTenant(t, {.instance = &instance.config});
  }
  // Warm every tenant with identical state (identical resident bytes).
  for (TenantId t = 0; t < kTenants; ++t) {
    for (size_t i = 0; i < contexts.size(); ++i) {
      fleet.Observe(t, contexts[i], instance.trace[i].exec_seconds);
    }
  }
  ASSERT_EQ(fleet.WarmCount(), static_cast<size_t>(kTenants));

  // Touch in a scrambled, known order; recency is now 3 < 0 < 4 < 1 < 5 < 2.
  const std::vector<TenantId> touch_order = {3, 0, 4, 1, 5, 2};
  for (const TenantId t : touch_order) fleet.Predict(t, contexts[0]);

  // Budget for roughly half the fleet: eviction must shed the least
  // recently touched tenants first.
  fleet.SetResidentBytesBudget(fleet.ResidentBytes() / 2);
  ASSERT_LT(fleet.WarmCount(), static_cast<size_t>(kTenants));
  ASSERT_GT(fleet.evictions(), 0u);

  // Property: the warm set is exactly a suffix of the touch order.
  size_t first_warm = touch_order.size();
  for (size_t i = 0; i < touch_order.size(); ++i) {
    if (fleet.IsWarm(touch_order[i])) {
      first_warm = i;
      break;
    }
  }
  for (size_t i = 0; i < touch_order.size(); ++i) {
    EXPECT_EQ(fleet.IsWarm(touch_order[i]), i >= first_warm)
        << "tenant " << touch_order[i] << " at touch position " << i;
  }

  // Raising the budget stops eviction; touching a cold tenant reactivates.
  fleet.SetResidentBytesBudget(0);
  bool cold = false;
  fleet.Predict(touch_order[0], contexts[0], &cold);
  EXPECT_TRUE(cold);
  EXPECT_TRUE(fleet.IsWarm(touch_order[0]));
}

// A pinned tenant is never evicted, explicitly or by budget pressure.
TEST(FleetServiceTest, PinnedTenantSurvivesBudgetPressure) {
  FleetService fleet(DeterministicFleet());
  const fleet::InstanceTrace instance = MakeTrace(40);
  const std::vector<core::QueryContext> contexts = MakeContexts(instance);
  fleet.RegisterTenant(0, {.instance = &instance.config});
  fleet.RegisterTenant(1, {.instance = &instance.config});
  const std::shared_ptr<TenantStack> pinned = fleet.PinTenant(0);
  for (TenantId t = 0; t < 2; ++t) {
    for (size_t i = 0; i < contexts.size(); ++i) {
      fleet.Observe(t, contexts[i], instance.trace[i].exec_seconds);
    }
  }
  std::string error;
  EXPECT_FALSE(fleet.EvictTenant(0, &error));
  EXPECT_EQ(error, "tenant is pinned");
  fleet.SetResidentBytesBudget(1);  // Absurdly tight: evict all evictable.
  EXPECT_TRUE(fleet.IsWarm(0));
  EXPECT_FALSE(fleet.IsWarm(1));
  // The pinned pointer is the live stack.
  EXPECT_GT(pinned->total_predictions() + pinned->pool_size(), 0u);
}

// Concurrency: N threads predicting/observing across disjoint tenants
// while an evictor thread churns the registry. TSan-clean, no lost
// observations or predictions, and the obs owner tags of evicted tenants
// are fully unregistered (no metric leak).
TEST(FleetServiceTest, ConcurrentDisjointTenantsWithEvictorChurn) {
  constexpr int kTenants = 4;
  constexpr int kEventsPerTenant = 400;
  const fleet::InstanceTrace instance = MakeTrace(kEventsPerTenant);
  const std::vector<core::QueryContext> contexts = MakeContexts(instance);

  obs::MetricsRegistry registry;
  FleetServiceConfig config;
  config.stack.predictor = FastStage();
  config.async_retrain = true;
  config.max_concurrent_trainings = 2;
  FleetService* fleet = new FleetService(
      config, {.metrics = &registry, .metrics_prefix = "stage_"});
  const size_t fleet_only_metrics = registry.size();

  for (TenantId t = 0; t < kTenants; ++t) {
    fleet->RegisterTenant(t, {.instance = &instance.config});
  }

  std::atomic<bool> stop_evictor{false};
  std::vector<std::thread> workers;
  workers.reserve(kTenants + 1);
  for (int t = 0; t < kTenants; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kEventsPerTenant; ++i) {
        fleet->Predict(static_cast<TenantId>(t), contexts[i]);
        fleet->Observe(static_cast<TenantId>(t), contexts[i],
                       instance.trace[i].exec_seconds);
      }
    });
  }
  workers.emplace_back([&] {
    TenantId next = 0;
    while (!stop_evictor.load(std::memory_order_relaxed)) {
      // Busy tenants refuse eviction; idle ones park and later cold-start.
      fleet->EvictTenant(next % kTenants, nullptr);
      next++;
      std::this_thread::yield();
    }
  });
  for (int t = 0; t < kTenants; ++t) workers[t].join();
  stop_evictor.store(true, std::memory_order_relaxed);
  workers.back().join();
  fleet->WaitForRetrain();

  // No lost work: every prediction and observation of every tenant is
  // accounted, across however many evict/activate cycles the churn caused.
  for (TenantId t = 0; t < kTenants; ++t) {
    EXPECT_EQ(fleet->TotalPredictions(t),
              static_cast<uint64_t>(kEventsPerTenant))
        << "tenant " << t;
    bool cold = false;
    // Replaying an already-observed key must hit the tenant's cache: its
    // observations survived the churn.
    const core::Prediction probe = fleet->Predict(t, contexts[0], &cold);
    EXPECT_EQ(probe.source, core::PredictionSource::kCache) << "tenant " << t;
  }

  // Park everything: all per-tenant owner tags must unregister.
  for (TenantId t = 0; t < kTenants; ++t) {
    std::string error;
    ASSERT_TRUE(fleet->EvictTenant(t, &error)) << error;
  }
  EXPECT_EQ(registry.size(), fleet_only_metrics);
  std::string exposition_error;
  EXPECT_TRUE(obs::ValidateTextExposition(registry.RenderText(),
                                          &exposition_error))
      << exposition_error;

  delete fleet;
  EXPECT_EQ(registry.size(), 0u);  // Fleet-level tags dropped too.
}

// Async retrain through the fleet worker pool: trainings complete and the
// coalescing semantics hold (WaitForRetrain drains the queue).
TEST(FleetServiceTest, AsyncRetrainTrainsTenants) {
  FleetServiceConfig config;
  config.stack.predictor = FastStage();
  config.async_retrain = true;
  config.max_concurrent_trainings = 2;
  FleetService fleet(config);
  const fleet::InstanceTrace instance = MakeTrace(300);
  const std::vector<core::QueryContext> contexts = MakeContexts(instance);
  for (TenantId t = 0; t < 3; ++t) {
    fleet.RegisterTenant(t, {.instance = &instance.config});
    for (size_t i = 0; i < contexts.size(); ++i) {
      fleet.Observe(t, contexts[i], instance.trace[i].exec_seconds);
    }
  }
  fleet.WaitForRetrain();
  for (TenantId t = 0; t < 3; ++t) {
    bool cold = false;
    fleet.Predict(t, contexts[0], &cold);
    EXPECT_FALSE(cold);
  }
}

TEST(FleetSnapshotTest, RoundTripsEveryTenant) {
  const std::string path = TempPath("fleet_snapshot_roundtrip.sflt");
  std::vector<std::pair<TenantId, std::string>> payloads = {
      {11, "tenant eleven payload"},
      {3, std::string(1000, 'x')},
      {900, ""},
  };
  std::string error;
  ASSERT_TRUE(WriteFleetSnapshotFile(path, payloads, &error)) << error;

  FleetSnapshotReader reader;
  ASSERT_TRUE(reader.Open(path, &error)) << error;
  ASSERT_EQ(reader.entries().size(), payloads.size());
  EXPECT_TRUE(reader.Contains(11));
  EXPECT_TRUE(reader.Contains(900));
  EXPECT_FALSE(reader.Contains(12));
  for (const auto& [tenant, want] : payloads) {
    std::string got;
    ASSERT_TRUE(reader.ReadTenant(tenant, &got, &error)) << error;
    EXPECT_EQ(got, want);
  }
  std::string unused;
  EXPECT_FALSE(reader.ReadTenant(12, &unused, &error));
  std::remove(path.c_str());
}

// Per-tenant isolation of corruption: flipping a byte inside ONE tenant's
// payload fails only that tenant's read — proof that activation verifies
// (and therefore reads) just the requested payload, not the whole file.
TEST(FleetSnapshotTest, CorruptionIsDetectedPerTenant) {
  const std::string path = TempPath("fleet_snapshot_corrupt.sflt");
  std::vector<std::pair<TenantId, std::string>> payloads = {
      {1, std::string(500, 'a')},
      {2, std::string(500, 'b')},
  };
  std::string error;
  ASSERT_TRUE(WriteFleetSnapshotFile(path, payloads, &error)) << error;

  FleetSnapshotReader reader;
  ASSERT_TRUE(reader.Open(path, &error)) << error;
  uint64_t tenant2_offset = 0;
  for (const FleetSnapshotEntry& entry : reader.entries()) {
    if (entry.tenant_id == 2) tenant2_offset = entry.offset;
  }
  ASSERT_GT(tenant2_offset, 0u);
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    // +8 skips the length prefix; +100 lands mid-payload.
    file.seekp(static_cast<std::streamoff>(tenant2_offset + 8 + 100));
    file.put('Z');
  }
  ASSERT_TRUE(reader.Open(path, &error)) << error;  // Index still intact.
  std::string payload;
  EXPECT_TRUE(reader.ReadTenant(1, &payload, &error)) << error;
  EXPECT_EQ(payload, payloads[0].second);
  EXPECT_FALSE(reader.ReadTenant(2, &payload, &error));
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;

  // Corrupting the index is caught at Open.
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(4 * 4 + 8 + 3);  // Inside the first index entry.
    file.put('Z');
  }
  EXPECT_FALSE(reader.Open(path, &error));
  EXPECT_NE(error.find("index"), std::string::npos) << error;

  // A CRC-valid index can still declare a size the file cannot hold:
  // inflate tenant 2's index size and its length prefix alike, then
  // recompute the index CRC. Only tenant 2's read fails, without
  // allocating the declared size.
  ASSERT_TRUE(WriteFleetSnapshotFile(path, payloads, &error)) << error;
  {
    constexpr std::streamoff kIndexCrcAt = 4 * 3 + 8;
    constexpr std::streamoff kIndexAt = kIndexCrcAt + 4;
    constexpr std::streamoff kEntryBytes = 8 + 8 + 8 + 4;
    const uint64_t inflated = uint64_t{1} << 62;
    char inflated_bytes[sizeof(inflated)];
    std::memcpy(inflated_bytes, &inflated, sizeof(inflated));
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    // Tenant 2 is the second entry; its size follows the id and offset.
    file.seekp(kIndexAt + kEntryBytes + 16);
    file.write(inflated_bytes, sizeof(inflated_bytes));
    file.seekp(static_cast<std::streamoff>(tenant2_offset));
    file.write(inflated_bytes, sizeof(inflated_bytes));
    std::string index(2 * kEntryBytes, '\0');
    file.seekg(kIndexAt);
    file.read(index.data(), static_cast<std::streamsize>(index.size()));
    const uint32_t crc = Crc32(index);
    char crc_bytes[sizeof(crc)];
    std::memcpy(crc_bytes, &crc, sizeof(crc));
    file.seekp(kIndexCrcAt);
    file.write(crc_bytes, sizeof(crc_bytes));
    ASSERT_TRUE(file.good());
  }
  ASSERT_TRUE(reader.Open(path, &error)) << error;
  EXPECT_TRUE(reader.ReadTenant(1, &payload, &error)) << error;
  EXPECT_EQ(payload, payloads[0].second);
  EXPECT_FALSE(reader.ReadTenant(2, &payload, &error));
  std::remove(path.c_str());
}

// Full fleet round-trip through disk: save a serving fleet, attach the file
// to a fresh process's fleet, and cold-activate tenants one by one. The
// activated predictor state is bit-for-bit (telemetry restarts at zero by
// the documented contract).
TEST(FleetSnapshotTest, SaveAttachActivateRoundTrip) {
  const std::string path = TempPath("fleet_snapshot_roundtrip_full.sflt");
  constexpr int kTenants = 3;
  const fleet::InstanceTrace instance = MakeTrace(300);
  const std::vector<core::QueryContext> contexts = MakeContexts(instance);

  FleetService original(DeterministicFleet());
  for (TenantId t = 0; t < kTenants; ++t) {
    original.RegisterTenant(t, {.instance = &instance.config});
    for (size_t i = 0; i < contexts.size(); ++i) {
      original.Observe(t, contexts[i], instance.trace[i].exec_seconds);
    }
  }
  // A never-activated tenant stays out of the file and activates fresh.
  original.RegisterTenant(99, {.instance = &instance.config});
  std::string error;
  ASSERT_TRUE(original.SaveSnapshot(path, &error)) << error;

  FleetService restored(DeterministicFleet());
  for (TenantId t = 0; t < kTenants; ++t) {
    restored.RegisterTenant(t, {.instance = &instance.config});
  }
  restored.RegisterTenant(99, {.instance = &instance.config});
  ASSERT_TRUE(restored.AttachSnapshot(path, &error)) << error;

  const fleet::InstanceTrace probe_trace = MakeTrace(50, /*seed=*/77);
  const std::vector<core::QueryContext> probes = MakeContexts(probe_trace);
  for (TenantId t = 0; t < kTenants; ++t) {
    for (const core::QueryContext& probe : probes) {
      const core::Prediction want = original.Predict(t, probe);
      const core::Prediction got = restored.Predict(t, probe);
      EXPECT_EQ(want.source, got.source);
      EXPECT_DOUBLE_EQ(want.seconds, got.seconds);
    }
  }
  EXPECT_EQ(restored.cold_activations(), static_cast<uint64_t>(kTenants));
  bool cold = false;
  restored.Predict(99, probes[0], &cold);  // Fresh activation, no payload.
  EXPECT_TRUE(cold);
  std::remove(path.c_str());
}

// A bad payload in an attached snapshot must not take the process down at
// the tenant's first request: a corrupt payload (checksum mismatch) and one
// written under another stack config (more cache entries than the
// restoring cache holds) each fall back to a fresh stack and are counted,
// while the intact tenant loads as saved.
TEST(FleetSnapshotTest, BadTenantPayloadActivatesFresh) {
  const std::string path = TempPath("fleet_snapshot_bad_payload.sflt");
  const fleet::InstanceTrace instance = MakeTrace(200);
  const std::vector<core::QueryContext> contexts = MakeContexts(instance);

  FleetService original(DeterministicFleet());
  for (TenantId t = 1; t <= 3; ++t) {
    original.RegisterTenant(t, {.instance = &instance.config});
    for (size_t i = 0; i < contexts.size(); ++i) {
      original.Observe(t, contexts[i], instance.trace[i].exec_seconds);
    }
  }
  std::string error;
  ASSERT_TRUE(original.SaveSnapshot(path, &error)) << error;
  {
    FleetSnapshotReader reader;
    ASSERT_TRUE(reader.Open(path, &error)) << error;
    uint64_t tenant2_offset = 0;
    for (const FleetSnapshotEntry& entry : reader.entries()) {
      if (entry.tenant_id == 2) tenant2_offset = entry.offset;
    }
    ASSERT_GT(tenant2_offset, 0u);
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    // +8 skips the length prefix; +100 lands mid-payload.
    file.seekp(static_cast<std::streamoff>(tenant2_offset + 8 + 100));
    file.put('Z');
  }

  obs::MetricsRegistry registry;
  FleetService restored(DeterministicFleet(), {.metrics = &registry});
  restored.RegisterTenant(1, {.instance = &instance.config});
  restored.RegisterTenant(2, {.instance = &instance.config});
  TenantStackConfig small_cache = DeterministicFleet().stack;
  small_cache.predictor.cache.capacity =
      original.PinTenant(3)->exec_time_cache().size() - 1;
  ASSERT_GT(small_cache.predictor.cache.capacity, 0u);
  restored.RegisterTenant(3, {.instance = &instance.config}, &small_cache);
  ASSERT_TRUE(restored.AttachSnapshot(path, &error)) << error;

  for (const core::QueryContext& context : contexts) {
    const core::Prediction want = original.Predict(1, context);
    const core::Prediction got = restored.Predict(1, context);
    EXPECT_EQ(want.source, got.source);
    EXPECT_EQ(want.seconds, got.seconds);
  }
  EXPECT_EQ(restored.snapshot_fallbacks(), 0u);
  for (TenantId t = 2; t <= 3; ++t) {
    // Fresh: nothing cached, no local model, so the cold-start default.
    const core::Prediction fresh = restored.Predict(t, contexts.front());
    EXPECT_EQ(fresh.source, core::PredictionSource::kDefault) << t;
    EXPECT_EQ(restored.snapshot_fallbacks(), t - 1);
  }
  EXPECT_EQ(restored.cold_activations(), 3u);
  EXPECT_EQ(restored.activation_latency()
                .slot(FleetService::kActivationFromFile)
                .count,
            1u);
  EXPECT_EQ(restored.activation_latency()
                .slot(FleetService::kActivationFresh)
                .count,
            2u);
  EXPECT_NE(registry.RenderText().find(
                "stage_fleet_snapshot_fallbacks_total 2"),
            std::string::npos);

  // The fresh stacks serve and learn like any other.
  for (size_t i = 0; i < contexts.size(); ++i) {
    restored.Observe(2, contexts[i], instance.trace[i].exec_seconds);
  }
  EXPECT_EQ(restored.Predict(2, contexts.front()).source,
            core::PredictionSource::kCache);
  std::remove(path.c_str());
}

// The symmetric status-returning save/load contract on the stack itself.
TEST(TenantStackTest, SaveLoadStatusContract) {
  TenantStackConfig config;
  config.predictor = FastStage();
  TenantStack stack(config);
  const fleet::InstanceTrace instance = MakeTrace(100);
  const std::vector<core::QueryContext> contexts = MakeContexts(instance);
  for (size_t i = 0; i < contexts.size(); ++i) {
    stack.Observe(contexts[i], instance.trace[i].exec_seconds,
                  /*inline_retrain=*/true);
  }

  std::ostringstream out;
  std::string error;
  ASSERT_TRUE(stack.SaveState(out, &error)) << error;
  const std::string bytes = std::move(out).str();

  // A truncated stream loads as false with a diagnostic, not a crash.
  TenantStack truncated(config);
  std::istringstream half(bytes.substr(0, bytes.size() / 2));
  EXPECT_FALSE(truncated.LoadState(half, &error));
  EXPECT_FALSE(error.empty());

  // A failing sink reports false instead of silently writing garbage.
  std::ofstream bad_sink("/nonexistent-dir/nope");
  EXPECT_FALSE(stack.SaveState(bad_sink, &error));

  // The full stream round-trips.
  TenantStack loaded(config);
  std::istringstream in(bytes);
  ASSERT_TRUE(loaded.LoadState(in, &error)) << error;
  for (const core::QueryContext& context : contexts) {
    const core::Prediction want = stack.Predict(context);
    const core::Prediction got = loaded.Predict(context);
    EXPECT_EQ(want.source, got.source);
    EXPECT_DOUBLE_EQ(want.seconds, got.seconds);
  }
}

TEST(ServiceConfigTest, ValidateRejectsNonsense) {
  TenantStackConfig config;
  EXPECT_TRUE(config.predictor.Validate().empty());

  config.predictor.cache.capacity = 0;
  EXPECT_FALSE(config.predictor.Validate().empty());
  config.predictor.cache.capacity = 2000;

  config.predictor.cache.alpha = 1.5;
  EXPECT_FALSE(config.predictor.Validate().empty());
  config.predictor.cache.alpha = 0.8;

  config.predictor.retrain_interval = 0;
  EXPECT_FALSE(config.predictor.Validate().empty());
  config.predictor.retrain_interval = 400;

  config.predictor.min_train_size = 0;
  EXPECT_FALSE(config.predictor.Validate().empty());
  config.predictor.min_train_size = 30;

  config.predictor.local.ensemble.num_members = 0;
  EXPECT_FALSE(config.predictor.Validate().empty());
  config.predictor.local.ensemble.num_members = 10;

  EXPECT_TRUE(config.predictor.Validate().empty());
}

// Predict is PredictTraced without a trace, so two identical stacks
// serving the same queries each way report the same telemetry.
TEST(TenantStackTest, TracedAndUntracedPredictsReportTheSameTelemetry) {
  const fleet::InstanceTrace instance = MakeTrace(400);
  const std::vector<core::QueryContext> contexts = MakeContexts(instance);
  const global::GlobalModel global_model = SmallGlobalModel(instance);

  TenantStackConfig config;
  config.predictor = FastStage();
  // Nothing counts as short, and the local model is sure of most but not
  // all fresh queries: 322 cache hits, 68 local answers, 10 escalations.
  config.predictor.short_running_seconds = 0.0;
  config.predictor.uncertainty_log_std_threshold = 0.3;
  obs::MetricsRegistry traced_registry;
  obs::MetricsRegistry untraced_registry;
  TenantStack traced(config, {.global_model = &global_model,
                              .instance = &instance.config,
                              .metrics = &traced_registry});
  TenantStack untraced(config, {.global_model = &global_model,
                                .instance = &instance.config,
                                .metrics = &untraced_registry});
  for (size_t i = 0; i + 100 < contexts.size(); ++i) {
    traced.Observe(contexts[i], instance.trace[i].exec_seconds);
    untraced.Observe(contexts[i], instance.trace[i].exec_seconds);
  }

  for (const core::QueryContext& context : contexts) {
    obs::PredictionTrace trace;
    traced.PredictTraced(context, &trace);
    untraced.Predict(context);
  }

  // The queries reach every stage of the hierarchy.
  EXPECT_GT(traced.predictions_from(core::PredictionSource::kCache), 0u);
  EXPECT_GT(traced.predictions_from(core::PredictionSource::kLocal), 0u);
  EXPECT_GT(traced.predictions_from(core::PredictionSource::kGlobal), 0u);
  EXPECT_EQ(traced.SourceCounts(), untraced.SourceCounts());
  for (size_t slot = 0; slot < core::kNumPredictionSources; ++slot) {
    EXPECT_EQ(traced.predict_latency().slot(slot).count,
              untraced.predict_latency().slot(slot).count)
        << slot;
  }
  const auto escalations = [](obs::MetricsRegistry& registry) {
    return registry.GetCounter("stage_escalations_total").value();
  };
  EXPECT_GT(escalations(traced_registry), 0u);
  EXPECT_EQ(escalations(traced_registry), escalations(untraced_registry));
  const auto uncertainty_samples = [](obs::MetricsRegistry& registry) {
    return registry.GetHistogram("stage_local_uncertainty_log_std", {})
        .count();
  };
  EXPECT_GT(uncertainty_samples(traced_registry), 0u);
  EXPECT_EQ(uncertainty_samples(traced_registry),
            uncertainty_samples(untraced_registry));
}

TEST(TenantStackTest, AsyncRetrainPublishesModelInBackground) {
  const fleet::InstanceTrace instance = MakeTrace(600);
  const std::vector<core::QueryContext> contexts = MakeContexts(instance);

  FleetServiceConfig config;
  config.stack.predictor = FastStage();
  config.async_retrain = true;
  FleetService service(config);
  constexpr TenantId kTenant = 0;
  service.RegisterTenant(kTenant, {.instance = &instance.config});
  const std::shared_ptr<TenantStack> stack = service.PinTenant(kTenant);

  EXPECT_EQ(stack->local_model_snapshot(), nullptr);
  for (size_t i = 0; i < contexts.size(); ++i) {
    stack->Predict(contexts[i]);
    service.Observe(kTenant, contexts[i], instance.trace[i].exec_seconds);
  }
  service.WaitForRetrain();
  EXPECT_GE(stack->trainings(), 1);
  const auto model = stack->local_model_snapshot();
  ASSERT_NE(model, nullptr);
  EXPECT_TRUE(model->trained());
  // A fresh (uncached) query is now served by the swapped-in local model.
  const fleet::InstanceTrace probe = MakeTrace(10, /*seed=*/999);
  const core::Prediction prediction =
      stack->Predict(MakeContexts(probe).front());
  EXPECT_NE(prediction.source, core::PredictionSource::kDefault);
}

// The read/write stress test: 8 reader threads hammering Predict and
// PredictTraced race one writer replaying the trace (Observe) across
// several retrain boundaries. Asserts no lost counters (every prediction
// attributed, every cache lookup counted) and monotone attribution totals.
// Run under TSan to prove the absence of data races.
TEST(TenantStackTest, ConcurrentReadersWithRetrainingWriter) {
  const fleet::InstanceTrace instance = MakeTrace(1500);
  const std::vector<core::QueryContext> contexts = MakeContexts(instance);

  FleetServiceConfig config;
  config.stack.predictor = FastStage();
  config.stack.predictor.retrain_interval = 150;  // Several retrains.
  config.async_retrain = true;
  FleetService service(config);
  constexpr TenantId kTenant = 0;
  service.RegisterTenant(kTenant, {.instance = &instance.config});
  const std::shared_ptr<TenantStack> stack = service.PinTenant(kTenant);

  constexpr int kNumReaders = 8;
  constexpr int kPredictsPerReader = 3000;
  std::atomic<bool> writer_done{false};
  std::atomic<uint64_t> reader_predictions{0};

  std::vector<std::thread> readers;
  readers.reserve(kNumReaders);
  for (int r = 0; r < kNumReaders; ++r) {
    readers.emplace_back([&, r] {
      uint64_t made = 0;
      uint64_t last_total = 0;
      size_t at = static_cast<size_t>(r) * 131;
      while (made < kPredictsPerReader) {
        const core::QueryContext& context = contexts[at % contexts.size()];
        if (made % 3 == 0) {
          // The traced entry, racing the writer too.
          obs::PredictionTrace trace;
          stack->PredictTraced(context, &trace);
        } else {
          stack->Predict(context);
        }
        ++made;
        at += 127;
        // Attribution totals only ever grow, even mid-retrain-swap.
        const uint64_t total = stack->total_predictions();
        EXPECT_GE(total, last_total);
        last_total = total;
      }
      reader_predictions.fetch_add(made);
    });
  }

  std::thread writer([&] {
    for (size_t i = 0; i < contexts.size(); ++i) {
      stack->Predict(contexts[i]);  // The serving flow: predict, run, observe.
      service.Observe(kTenant, contexts[i], instance.trace[i].exec_seconds);
    }
    writer_done.store(true);
  });

  for (std::thread& reader : readers) reader.join();
  writer.join();
  ASSERT_TRUE(writer_done.load());
  service.WaitForRetrain();

  // No lost attribution: readers + writer predictions all counted.
  const uint64_t expected_predictions =
      reader_predictions.load() + contexts.size();
  EXPECT_EQ(stack->total_predictions(), expected_predictions);
  // No lost cache counters: every Predict did exactly one cache lookup.
  EXPECT_EQ(stack->exec_time_cache().hits() + stack->exec_time_cache().misses(),
            expected_predictions);
  // Per-source latency telemetry saw every prediction too.
  EXPECT_EQ(stack->predict_latency().total_count(), expected_predictions);
  // The writer crossed retrain boundaries and models were swapped in.
  EXPECT_GE(stack->trainings(), 1);
  ASSERT_NE(stack->local_model_snapshot(), nullptr);
}

}  // namespace
}  // namespace stage::fleet_serve
