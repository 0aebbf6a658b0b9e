// Heap-allocation guard for the serving read path: once a thread's scratch
// is warm, StagePredictor::Predict and PredictTraced (on a cache hit, a
// local answer and a global escalation, with and without a metrics
// registry) and FleetService::Predict on a warm tenant allocate nothing.
// A counting global operator new sees every allocation, so the guard lives
// in its own binary.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "stage/core/stage_predictor.h"
#include "stage/fleet/fleet.h"
#include "stage/fleet_serve/fleet_service.h"
#include "stage/global/global_model.h"
#include "stage/obs/metrics.h"
#include "stage/obs/trace.h"

namespace {

std::atomic<bool> g_count_allocations{false};
std::atomic<uint64_t> g_allocations{0};

// Every replaced operator new allocates here; `alignment` 0 means the
// default alignment.
void* CountedAlloc(std::size_t size, std::size_t alignment) noexcept {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  if (alignment == 0) return std::malloc(size);
  return std::aligned_alloc(alignment,
                            (size + alignment - 1) / alignment * alignment);
}

// Every replaced operator delete frees here. Not inlined: GCC would
// otherwise see the free() beside the operator new that fed it and warn of
// a mismatched pair.
[[gnu::noinline]] void CountedFree(void* p) noexcept { std::free(p); }

}  // namespace

// Counting overrides. Every scalar form is replaced: a sanitizer runtime
// supplies the forms a program leaves alone, and none of its allocations
// may reach CountedFree. The array forms forward to these by default and
// pair among themselves under a sanitizer.
void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size, 0)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = CountedAlloc(size, static_cast<std::size_t>(align))) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete(void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  CountedFree(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  CountedFree(p);
}

namespace stage {
namespace {

constexpr int kCalls = 100;

template <typename Fn>
uint64_t AllocationsDuring(Fn&& fn) {
  g_allocations.store(0, std::memory_order_relaxed);
  g_count_allocations.store(true, std::memory_order_relaxed);
  fn();
  g_count_allocations.store(false, std::memory_order_relaxed);
  return g_allocations.load(std::memory_order_relaxed);
}

// One instance's trace, its query contexts, and a small global model
// trained on it; the first 300 queries are observed, the last 100 are
// fresh.
struct Workload {
  fleet::InstanceTrace instance;
  std::vector<core::QueryContext> contexts;
  global::GlobalModel global_model;

  Workload() {
    fleet::FleetConfig config;
    config.num_instances = 1;
    config.workload.num_queries = 400;
    config.seed = 2024;
    instance = fleet::FleetGenerator(config).MakeInstanceTrace(0);
    std::vector<global::GlobalExample> examples;
    for (const fleet::QueryEvent& event : instance.trace) {
      contexts.push_back(core::MakeQueryContext(
          event.plan, event.concurrent_queries,
          static_cast<uint64_t>(event.arrival_ms)));
      examples.push_back(global::MakeGlobalExample(
          event.plan, instance.config, event.concurrent_queries,
          event.exec_seconds));
    }
    global::GlobalModelConfig global_config;
    global_config.hidden_dim = 16;
    global_config.num_layers = 2;
    global_config.head_hidden = {16};
    global_config.epochs = 2;
    global_model = global::GlobalModel::Train(examples, global_config);
  }

  size_t observed() const { return contexts.size() - 100; }
};

// Thresholds under which the fresh queries split between local answers
// and escalations.
core::StagePredictorConfig MixedRouting() {
  core::StagePredictorConfig config;
  config.local.ensemble.num_members = 4;
  config.local.ensemble.member.num_rounds = 40;
  config.min_train_size = 20;
  config.retrain_interval = 100;
  config.short_running_seconds = 0.0;
  config.uncertainty_log_std_threshold = 0.3;
  return config;
}

constexpr core::PredictionSource kStages[] = {
    core::PredictionSource::kCache, core::PredictionSource::kLocal,
    core::PredictionSource::kGlobal};

// The first context `predict` answers from `source`. Predicting to find it
// also warms this thread's scratch for it.
template <typename PredictFn>
const core::QueryContext* FirstServedBy(const Workload& workload,
                                        core::PredictionSource source,
                                        PredictFn predict) {
  for (const core::QueryContext& context : workload.contexts) {
    if (predict(context).source == source) return &context;
  }
  return nullptr;
}

TEST(PredictAllocationTest, WarmStagePredictorPredictsAllocateNothing) {
  const Workload workload;
  // The counter is live: building a predictor allocates its cache and pool.
  EXPECT_GT(AllocationsDuring([] {
              const core::StagePredictor predictor(MixedRouting());
            }),
            0u);
  for (const bool metered : {false, true}) {
    obs::MetricsRegistry registry;
    core::StagePredictor predictor(
        MixedRouting(), {.global_model = &workload.global_model,
                         .instance = &workload.instance.config,
                         .metrics = metered ? &registry : nullptr});
    for (size_t i = 0; i < workload.observed(); ++i) {
      predictor.Observe(workload.contexts[i],
                        workload.instance.trace[i].exec_seconds);
    }
    for (const core::PredictionSource source : kStages) {
      const core::QueryContext* query = FirstServedBy(
          workload, source, [&predictor](const core::QueryContext& context) {
            return predictor.Predict(context);
          });
      ASSERT_NE(query, nullptr) << core::PredictionSourceName(source);
      EXPECT_EQ(AllocationsDuring([&] {
                  for (int i = 0; i < kCalls; ++i) {
                    (void)predictor.Predict(*query);
                  }
                }),
                0u)
          << "Predict, " << core::PredictionSourceName(source)
          << (metered ? ", metered" : "");
      obs::PredictionTrace trace;
      EXPECT_EQ(AllocationsDuring([&] {
                  for (int i = 0; i < kCalls; ++i) {
                    (void)predictor.PredictTraced(*query, &trace);
                  }
                }),
                0u)
          << "PredictTraced, " << core::PredictionSourceName(source)
          << (metered ? ", metered" : "");
      EXPECT_EQ(static_cast<int>(trace.stage), static_cast<int>(source));
    }
  }
}

TEST(PredictAllocationTest, WarmFleetServicePredictAllocatesNothing) {
  const Workload workload;
  fleet_serve::FleetServiceConfig config;
  config.stack.predictor = MixedRouting();
  config.async_retrain = false;
  fleet_serve::FleetService service(config);
  constexpr fleet_serve::TenantId kTenant = 3;
  service.RegisterTenant(kTenant, {.global_model = &workload.global_model,
                                   .instance = &workload.instance.config});
  for (size_t i = 0; i < workload.observed(); ++i) {
    service.Observe(kTenant, workload.contexts[i],
                    workload.instance.trace[i].exec_seconds);
  }
  for (const core::PredictionSource source : kStages) {
    const core::QueryContext* query = FirstServedBy(
        workload, source, [&service](const core::QueryContext& context) {
          return service.Predict(kTenant, context);
        });
    ASSERT_NE(query, nullptr) << core::PredictionSourceName(source);
    EXPECT_EQ(AllocationsDuring([&] {
                for (int i = 0; i < kCalls; ++i) {
                  (void)service.Predict(kTenant, *query);
                }
              }),
              0u)
        << core::PredictionSourceName(source);
  }
}

}  // namespace
}  // namespace stage
