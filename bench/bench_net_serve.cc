// Network serving bench: the prediction server's qps and client-observed
// latency over real loopback sockets, every predict served on the worker
// thread that read it.
//
// The workload is built so every prediction escalates to the global model
// (tenants registered with an unreachable min_train_size, never observed,
// trained paper-shaped GlobalModel attached): the per-request cost is then
// dominated by tree-GCN inference.
//
// The load generator keeps `connections` pipelined sockets saturated from
// one poll() loop. The run must be loss-free and every answer must come
// from the global model, or the bench exits 1. Emits machine-readable
// BENCH_net_serve.json (qps, p50, p99); it carries no gate.
//
// STAGE_BENCH_FAST=1 shrinks the workload for CI smoke runs.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "stage/fleet/fleet.h"
#include "stage/fleet_serve/fleet_service.h"
#include "stage/global/global_model.h"
#include "stage/net/loadgen.h"
#include "stage/net/server.h"

namespace {

using namespace stage;

struct BenchConfig {
  bool fast = false;
  int num_tenants = 4;
  int plan_pool = 256;
  int train_queries = 400;       // Global-model training examples.
  int connections = 16;
  int pipeline = 8;
  int64_t requests_per_connection = 400;
};

BenchConfig MakeBenchConfig() {
  BenchConfig config;
  const char* fast = std::getenv("STAGE_BENCH_FAST");
  if (fast != nullptr && fast[0] != '\0' && fast[0] != '0') {
    config.fast = true;
    config.train_queries = 150;
    config.requests_per_connection = 100;
  }
  return config;
}

// One server lifetime + one loadgen run; false when the run lost requests
// or broke the all-global workload contract.
bool RunServer(fleet_serve::FleetService* fleet,
               const std::vector<plan::Plan>& plans, const BenchConfig& bench,
               net::LoadgenResult* result) {
  net::ServerConfig server_config;
  server_config.num_workers = 2;
  server_config.max_connections = 1024;
  net::Server server(fleet, server_config);

  net::LoadgenConfig loadgen_config;
  loadgen_config.port = server.port();
  loadgen_config.connections = bench.connections;
  loadgen_config.pipeline = bench.pipeline;
  loadgen_config.requests_per_connection = bench.requests_per_connection;
  loadgen_config.tenants = bench.num_tenants;

  std::string error;
  if (!net::RunLoadgen(loadgen_config, plans, result, &error)) {
    std::fprintf(stderr, "loadgen failed: %s\n", error.c_str());
    return false;
  }
  server.Shutdown();

  const uint64_t expected =
      static_cast<uint64_t>(bench.connections) *
      static_cast<uint64_t>(bench.requests_per_connection);
  if (result->completed != expected || result->errors != 0) {
    std::fprintf(stderr,
                 "%llu/%llu completed, %llu errors — the bench requires a "
                 "loss-free run\n",
                 static_cast<unsigned long long>(result->completed),
                 static_cast<unsigned long long>(expected),
                 static_cast<unsigned long long>(result->errors));
    return false;
  }
  // The workload contract: everything escalates to the global model.
  const uint64_t global_served = result->source_counts[
      static_cast<size_t>(core::PredictionSource::kGlobal)];
  if (global_served != expected) {
    std::fprintf(stderr,
                 "only %llu/%llu predictions came from the global model — "
                 "workload contract broken\n",
                 static_cast<unsigned long long>(global_served),
                 static_cast<unsigned long long>(expected));
    return false;
  }
  return true;
}

}  // namespace

int main() {
  const BenchConfig bench = MakeBenchConfig();

  // Train the global model on a disjoint training fleet (paper-shaped
  // network: inference is the per-request cost under test, so keep the
  // production layer sizes even in fast mode — only the training corpus
  // shrinks).
  fleet::FleetConfig train_config;
  train_config.num_instances = 2;
  train_config.workload.num_queries = bench.train_queries;
  train_config.seed = 777;
  fleet::FleetGenerator train_generator(train_config);
  std::vector<global::GlobalExample> examples;
  for (const auto& instance : train_generator.GenerateFleet()) {
    for (const auto& event : instance.trace) {
      examples.push_back(global::MakeGlobalExample(
          event.plan, instance.config, event.concurrent_queries,
          event.exec_seconds));
    }
  }
  global::GlobalModelConfig model_config;
  // Closer to the paper's 512x8 server-class network than the CPU-training
  // default (48x3): per-request cost must be inference-dominated to measure
  // what production would see.
  model_config.hidden_dim = 256;
  model_config.num_layers = 6;
  model_config.head_hidden = {256, 128};
  model_config.epochs = 1;  // Inference cost, not accuracy, is under test.
  std::printf("training global model on %zu examples...\n", examples.size());
  const global::GlobalModel global_model =
      global::GlobalModel::Train(examples, model_config);

  // The serving fleet: cold tenants whose local models can never train, so
  // every predict is a cache miss that escalates to the global model.
  fleet::FleetConfig serve_config;
  serve_config.num_instances = 1;
  serve_config.workload.num_queries = bench.plan_pool;
  serve_config.seed = 2024;
  fleet::FleetGenerator serve_generator(serve_config);
  const fleet::InstanceTrace instance = serve_generator.MakeInstanceTrace(0);
  std::vector<plan::Plan> plans;
  plans.reserve(instance.trace.size());
  for (const auto& event : instance.trace) plans.push_back(event.plan);

  fleet_serve::FleetServiceConfig fleet_config;
  fleet_config.stack.predictor.min_train_size = 1 << 30;  // Never trains.
  fleet_config.async_retrain = false;
  fleet_serve::FleetService fleet(fleet_config);
  for (int t = 0; t < bench.num_tenants; ++t) {
    fleet.RegisterTenant(static_cast<uint64_t>(t),
                         {&global_model, &instance.config});
  }

  std::printf("workload: %d connections x %lld requests, pipeline %d, "
              "%d tenants, %zu-plan pool\n",
              bench.connections,
              static_cast<long long>(bench.requests_per_connection),
              bench.pipeline, bench.num_tenants, plans.size());

  net::LoadgenResult result;
  if (!RunServer(&fleet, plans, bench, &result)) return 1;
  std::printf("server: %.0f qps, p50 %.2fms, p99 %.2fms\n", result.qps,
              result.p50_ms, result.p99_ms);

  std::FILE* json = std::fopen("BENCH_net_serve.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_net_serve.json for write\n");
    return 1;
  }
  std::fprintf(
      json,
      "{\n"
      "  \"config\": {\"fast\": %s, \"connections\": %d, \"pipeline\": %d, "
      "\"requests_per_connection\": %lld, \"tenants\": %d},\n"
      "  \"server\": {\"qps\": %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f}\n"
      "}\n",
      bench.fast ? "true" : "false", bench.connections, bench.pipeline,
      static_cast<long long>(bench.requests_per_connection),
      bench.num_tenants, result.qps, result.p50_ms, result.p99_ms);
  std::fclose(json);
  std::printf("wrote BENCH_net_serve.json\n");
  return 0;
}
