// Fleet serving bench (ROADMAP item 1 acceptance): replays a mixed
// workload across a 1k+-tenant FleetService and reports
//   * warm replay throughput (acceptance bar: >= 100k predictions/s),
//   * warm vs cold per-call latency p50/p99 (parked reactivation and
//     snapshot-file activation both exercised),
//   * resident memory unbounded vs under a tight byte budget.
// Results land in BENCH_fleet_serve.json in the working directory.
//
// STAGE_BENCH_FAST=1 shrinks the workload for CI smoke runs. Local
// training is disabled (min_train_size above the per-tenant event count)
// so the replay is deterministic and the measured path is pure serving.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "stage/common/stats.h"
#include "stage/core/stage_predictor.h"
#include "stage/fleet/fleet.h"
#include "stage/fleet_serve/fleet_service.h"

using namespace stage;

namespace {

struct BenchConfig {
  bool fast = false;
  size_t num_tenants = 1024;
  // Distinct generated traces; tenants map onto them round-robin. Each
  // tenant still owns an independent predictor stack — sharing the input
  // streams just bounds generation time.
  size_t num_traces = 32;
  int events_per_tenant = 192;
  size_t replay_passes = 4;  // Warm throughput passes over the fleet.
};

BenchConfig MakeConfig() {
  BenchConfig config;
  const char* fast = std::getenv("STAGE_BENCH_FAST");
  if (fast != nullptr && fast[0] == '1') {
    config.fast = true;
    config.num_tenants = 96;
    config.num_traces = 8;
    config.events_per_tenant = 48;
    config.replay_passes = 2;
  }
  return config;
}

struct Workload {
  std::vector<fleet::InstanceTrace> traces;
  std::vector<std::vector<core::QueryContext>> contexts;  // Per trace.
  const fleet::InstanceTrace& TraceFor(fleet_serve::TenantId tenant) const {
    return traces[tenant % traces.size()];
  }
  const std::vector<core::QueryContext>& ContextsFor(
      fleet_serve::TenantId tenant) const {
    return contexts[tenant % contexts.size()];
  }
};

Workload MakeWorkload(const BenchConfig& config) {
  fleet::FleetConfig fleet_config;
  fleet_config.num_instances = static_cast<int>(config.num_traces);
  fleet_config.workload.num_queries = config.events_per_tenant;
  fleet_config.seed = 2024;
  fleet::FleetGenerator generator(fleet_config);
  Workload workload;
  workload.traces.reserve(config.num_traces);
  workload.contexts.reserve(config.num_traces);
  for (size_t i = 0; i < config.num_traces; ++i) {
    workload.traces.push_back(
        generator.MakeInstanceTrace(static_cast<int>(i)));
    const fleet::InstanceTrace& instance = workload.traces.back();
    std::vector<core::QueryContext> contexts;
    contexts.reserve(instance.trace.size());
    for (const fleet::QueryEvent& event : instance.trace) {
      contexts.push_back(core::MakeQueryContext(
          event.plan, event.concurrent_queries,
          static_cast<uint64_t>(event.arrival_ms)));
    }
    workload.contexts.push_back(std::move(contexts));
  }
  return workload;
}

fleet_serve::FleetServiceConfig ServingFleetConfig(const BenchConfig& config) {
  fleet_serve::FleetServiceConfig fleet;
  fleet.async_retrain = false;
  // Serving-only replay: the pool never reaches the training threshold.
  fleet.stack.predictor.min_train_size = 1 << 30;
  (void)config;
  return fleet;
}

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct LatencySplit {
  std::vector<double> warm_ns;
  std::vector<double> cold_ns;
};

// One timed pass over every tenant (one context each), splitting samples by
// whether the call paid a cold activation. Single-threaded: the point is
// per-call latency, not throughput.
LatencySplit TimedPass(fleet_serve::FleetService& fleet,
                       const Workload& workload, size_t num_tenants,
                       size_t context_index) {
  LatencySplit split;
  for (size_t t = 0; t < num_tenants; ++t) {
    const auto& contexts = workload.ContextsFor(t);
    const core::QueryContext& context =
        contexts[context_index % contexts.size()];
    bool cold = false;
    const auto start = std::chrono::steady_clock::now();
    fleet.Predict(t, context, &cold);
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    (cold ? split.cold_ns : split.warm_ns).push_back(ns);
  }
  return split;
}

void Append(LatencySplit& into, LatencySplit&& from) {
  into.warm_ns.insert(into.warm_ns.end(), from.warm_ns.begin(),
                      from.warm_ns.end());
  into.cold_ns.insert(into.cold_ns.end(), from.cold_ns.begin(),
                      from.cold_ns.end());
}

}  // namespace

int main() {
  const BenchConfig config = MakeConfig();
  std::printf("fleet_serve bench: %zu tenants, %d events/tenant%s\n",
              config.num_tenants, config.events_per_tenant,
              config.fast ? " (fast)" : "");
  const Workload workload = MakeWorkload(config);

  fleet_serve::FleetService fleet(ServingFleetConfig(config));
  for (size_t t = 0; t < config.num_tenants; ++t) {
    fleet.RegisterTenant(t, {.instance = &workload.TraceFor(t).config});
  }

  // -- Seed: observe every tenant's trace (fills caches + pools) --------
  const auto seed_start = std::chrono::steady_clock::now();
  for (size_t t = 0; t < config.num_tenants; ++t) {
    const auto& contexts = workload.ContextsFor(t);
    const auto& trace = workload.TraceFor(t).trace;
    for (size_t i = 0; i < contexts.size(); ++i) {
      fleet.Observe(t, contexts[i], trace[i].exec_seconds);
    }
  }
  const double seed_seconds = Seconds(seed_start);
  const size_t unbounded_resident_bytes = fleet.ResidentBytes();
  std::printf("seeded %zu warm tenants in %.2fs, resident %.1f MiB\n",
              fleet.WarmCount(), seed_seconds,
              static_cast<double>(unbounded_resident_bytes) / (1024 * 1024));

  // -- Warm replay throughput (the 100k predictions/s acceptance bar) ---
  const unsigned hw = std::thread::hardware_concurrency();
  const size_t num_threads =
      std::min<size_t>(config.num_tenants, hw == 0 ? 4 : hw);
  std::atomic<uint64_t> predictions{0};
  const auto replay_start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> workers;
    workers.reserve(num_threads);
    for (size_t w = 0; w < num_threads; ++w) {
      workers.emplace_back([&, w] {
        uint64_t made = 0;
        // Disjoint tenant stripes: thread w serves tenants w, w+T, ...
        for (size_t pass = 0; pass < config.replay_passes; ++pass) {
          for (size_t t = w; t < config.num_tenants; t += num_threads) {
            const auto& contexts = workload.ContextsFor(t);
            for (const core::QueryContext& context : contexts) {
              fleet.Predict(t, context);
              ++made;
            }
          }
        }
        predictions.fetch_add(made, std::memory_order_relaxed);
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
  const double replay_seconds = Seconds(replay_start);
  const double predictions_per_sec =
      static_cast<double>(predictions.load()) / replay_seconds;
  std::printf("warm replay: %llu predictions on %zu threads in %.2fs "
              "= %.0f predictions/s\n",
              static_cast<unsigned long long>(predictions.load()),
              num_threads, replay_seconds, predictions_per_sec);

  // -- Warm per-call latency (everything resident, no churn) ------------
  LatencySplit warm_split = TimedPass(fleet, workload, config.num_tenants, 0);
  if (!warm_split.cold_ns.empty()) {
    std::fprintf(stderr, "unexpected cold activation in the warm pass\n");
    return 1;
  }

  // -- Churn under a tight budget: parked-cold latency ------------------
  const size_t budget_bytes = unbounded_resident_bytes / 4;
  fleet.SetResidentBytesBudget(budget_bytes);
  LatencySplit parked;
  // Scanning tenants in id order against an LRU evictor is the worst case:
  // essentially every touch evicts the oldest stack and pays a parked cold
  // activation (serialize the victim, deserialize the newcomer).
  for (size_t pass = 0; pass < 2; ++pass) {
    Append(parked, TimedPass(fleet, workload, config.num_tenants, pass));
  }
  if (parked.cold_ns.empty()) {
    std::fprintf(stderr, "budget churn produced no cold activations\n");
    return 1;
  }
  const size_t churn_resident_bytes = fleet.ResidentBytes();
  const uint64_t churn_evictions = fleet.evictions();
  const uint64_t churn_cold_activations = fleet.cold_activations();
  std::printf("churn @ %.1f MiB budget: %zu warm, %llu evictions, "
              "%llu cold activations, resident %.1f MiB\n",
              static_cast<double>(budget_bytes) / (1024 * 1024),
              fleet.WarmCount(),
              static_cast<unsigned long long>(churn_evictions),
              static_cast<unsigned long long>(churn_cold_activations),
              static_cast<double>(churn_resident_bytes) / (1024 * 1024));

  // -- Snapshot round trip: file size + cold-from-file latency ----------
  const std::string snapshot_path = "bench_fleet_serve_snapshot.sflt";
  fleet.SetResidentBytesBudget(0);
  const auto save_start = std::chrono::steady_clock::now();
  std::string error;
  if (!fleet.SaveSnapshot(snapshot_path, &error)) {
    std::fprintf(stderr, "SaveSnapshot failed: %s\n", error.c_str());
    return 1;
  }
  const double save_seconds = Seconds(save_start);

  fleet_serve::FleetService restored(ServingFleetConfig(config));
  for (size_t t = 0; t < config.num_tenants; ++t) {
    restored.RegisterTenant(t, {.instance = &workload.TraceFor(t).config});
  }
  if (!restored.AttachSnapshot(snapshot_path, &error)) {
    std::fprintf(stderr, "AttachSnapshot failed: %s\n", error.c_str());
    return 1;
  }
  // Every first touch cold-activates from the indexed file: one seek + one
  // payload read per tenant, never a whole-fleet deserialize.
  LatencySplit from_file = TimedPass(restored, workload,
                                     config.num_tenants, 0);
  std::remove(snapshot_path.c_str());
  if (from_file.cold_ns.size() != config.num_tenants) {
    std::fprintf(stderr, "expected every first touch to cold-activate\n");
    return 1;
  }

  const double warm_p50 = Quantile(warm_split.warm_ns, 0.5);
  const double warm_p99 = Quantile(warm_split.warm_ns, 0.99);
  const double parked_p50 = Quantile(parked.cold_ns, 0.5);
  const double parked_p99 = Quantile(parked.cold_ns, 0.99);
  const double file_p50 = Quantile(from_file.cold_ns, 0.5);
  const double file_p99 = Quantile(from_file.cold_ns, 0.99);
  std::printf("latency ns: warm p50 %.0f p99 %.0f | cold(parked) p50 %.0f "
              "p99 %.0f | cold(file) p50 %.0f p99 %.0f\n",
              warm_p50, warm_p99, parked_p50, parked_p99, file_p50, file_p99);

  std::FILE* json = std::fopen("BENCH_fleet_serve.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_fleet_serve.json for write\n");
    return 1;
  }
  std::fprintf(
      json,
      "{\n"
      "  \"config\": {\"fast\": %s, \"num_tenants\": %zu, "
      "\"events_per_tenant\": %d, \"replay_threads\": %zu},\n"
      "  \"replay\": {\"predictions\": %llu, \"seconds\": %.3f, "
      "\"predictions_per_sec\": %.1f},\n"
      "  \"latency_ns\": {\n"
      "    \"warm_p50\": %.1f, \"warm_p99\": %.1f,\n"
      "    \"cold_parked_p50\": %.1f, \"cold_parked_p99\": %.1f,\n"
      "    \"cold_file_p50\": %.1f, \"cold_file_p99\": %.1f\n"
      "  },\n"
      "  \"memory\": {\"unbounded_resident_bytes\": %zu, "
      "\"budget_bytes\": %zu, \"churn_resident_bytes\": %zu},\n"
      "  \"churn\": {\"evictions\": %llu, \"cold_activations\": %llu},\n"
      "  \"snapshot\": {\"save_seconds\": %.3f, "
      "\"file_activations\": %zu}\n"
      "}\n",
      config.fast ? "true" : "false", config.num_tenants,
      config.events_per_tenant, num_threads,
      static_cast<unsigned long long>(predictions.load()), replay_seconds,
      predictions_per_sec, warm_p50, warm_p99, parked_p50, parked_p99,
      file_p50, file_p99, unbounded_resident_bytes, budget_bytes,
      churn_resident_bytes, static_cast<unsigned long long>(churn_evictions),
      static_cast<unsigned long long>(churn_cold_activations), save_seconds,
      from_file.cold_ns.size());
  std::fclose(json);
  std::printf("wrote BENCH_fleet_serve.json\n");
  return 0;
}
