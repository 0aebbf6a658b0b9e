// Figure 9: average inference latency and memory overhead of every
// predictor component (exec-time cache, local model, global model, the
// full Stage predictor, and the AutoWLM baseline). Latency is actually
// measured with google-benchmark; memory is the components' resident
// structure sizes.
#include <cstdio>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "stage/wlm/workload_manager.h"

using namespace stage;

namespace {

// Shared trained state (built once; google-benchmark runs each timing loop
// against it).
struct Harness {
  fleet::InstanceTrace instance;
  std::unique_ptr<core::StagePredictor> stage;
  std::unique_ptr<core::AutoWlmPredictor> autowlm;
  std::unique_ptr<global::GlobalModel> global_model;
  core::QueryContext repeat_context;   // A context that hits the cache.
  core::QueryContext miss_context;     // A context that misses it.

  static Harness& Get() {
    static Harness* harness = new Harness();
    return *harness;
  }

 private:
  Harness() {
    bench::SuiteConfig suite = bench::MakeSuiteConfig();
    suite.num_eval_instances = 1;
    global_model =
        std::make_unique<global::GlobalModel>(bench::TrainGlobalModel(suite));

    fleet::FleetGenerator generator(bench::EvalFleetConfig(suite));
    instance = generator.MakeInstanceTrace(0);
    stage = std::make_unique<core::StagePredictor>(
        bench::PaperStageConfig(),
        core::StagePredictorOptions{global_model.get(), &instance.config});
    autowlm =
        std::make_unique<core::AutoWlmPredictor>(bench::PaperAutoWlmConfig());
    core::ReplayTrace(instance.trace, *stage);
    core::ReplayTrace(instance.trace, *autowlm);

    // A repeated query (cache hit) and a fresh one (miss).
    const auto& last = instance.trace.back();
    repeat_context = core::MakeQueryContext(last.plan, 1, 1u << 30);
    stage->Observe(repeat_context, last.exec_seconds);
    miss_context = repeat_context;
    miss_context.feature_hash ^= 0xdeadbeefULL;  // Forced miss.
  }
};

void BM_ExecTimeCacheHit(benchmark::State& state) {
  Harness& harness = Harness::Get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(harness.stage->Predict(harness.repeat_context));
  }
}
BENCHMARK(BM_ExecTimeCacheHit);

void BM_LocalModelPredict(benchmark::State& state) {
  Harness& harness = Harness::Get();
  const auto local = harness.stage->local_model_snapshot();
  for (auto _ : state) {
    benchmark::DoNotOptimize(local->Predict(harness.miss_context.features));
  }
}
BENCHMARK(BM_LocalModelPredict);

void BM_GlobalModelPredict(benchmark::State& state) {
  Harness& harness = Harness::Get();
  const auto& event = harness.instance.trace.back();
  for (auto _ : state) {
    benchmark::DoNotOptimize(harness.global_model->PredictSeconds(
        event.plan, harness.instance.config, event.concurrent_queries));
  }
}
BENCHMARK(BM_GlobalModelPredict);

void BM_StagePredictorMiss(benchmark::State& state) {
  Harness& harness = Harness::Get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(harness.stage->Predict(harness.miss_context));
  }
}
BENCHMARK(BM_StagePredictorMiss);

void BM_AutoWlmPredict(benchmark::State& state) {
  Harness& harness = Harness::Get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(harness.autowlm->Predict(harness.miss_context));
  }
}
BENCHMARK(BM_AutoWlmPredict);

void BM_Featurization(benchmark::State& state) {
  Harness& harness = Harness::Get();
  const auto& event = harness.instance.trace.back();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::MakeQueryContext(event.plan, 1, 0));
  }
}
BENCHMARK(BM_Featurization);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  Harness& harness = Harness::Get();
  std::printf("\n=== Figure 9: memory overhead (resident structures) ===\n");
  std::printf("(paper shape: cache < AutoWLM < local (10x AutoWLM) << "
              "global, with the global model excluded from the per-cluster "
              "footprint — it deploys as a shared service)\n\n");
  std::printf("exec-time cache : %10zu bytes\n",
              harness.stage->exec_time_cache().MemoryBytes());
  std::printf("local model     : %10zu bytes\n",
              harness.stage->local_model_snapshot()->MemoryBytes());
  std::printf("AutoWLM model   : %10zu bytes\n", harness.autowlm->MemoryBytes());
  std::printf("global model    : %10zu bytes\n",
              harness.global_model->MemoryBytes());
  std::printf("Stage (local)   : %10zu bytes (cache + local model)\n",
              harness.stage->LocalMemoryBytes());
  return 0;
}
