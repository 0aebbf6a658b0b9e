// GBT hot-path microbenchmark: quantifies the FlatForest inference rewrite
// and the histogram-subtraction trainer against the original node-vector
// walk. The baseline below replicates the pre-rewrite predict path exactly
// (one heap-allocated result vector per member per call, two levels of
// vector indirection per tree); the flat path is the production one-row
// BayesianGbtEnsemble::Predict, the only GBT inference path (each member's
// 8-lane PredictInto walk). Emits machine-readable BENCH_gbt_hot_path.json
// in the working directory.
//
// STAGE_BENCH_FAST=1 shrinks the workload for CI smoke runs.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "stage/common/rng.h"
#include "stage/common/stats.h"
#include "stage/common/thread_pool.h"
#include "stage/gbt/dataset.h"
#include "stage/gbt/ensemble.h"
#include "stage/gbt/gbdt.h"
#include "stage/gbt/loss.h"

namespace {

std::atomic<bool> g_count_allocations{false};
std::atomic<uint64_t> g_allocations{0};

}  // namespace

// Counting overrides: the default operator new[] / delete[] forward here,
// so replacing this pair is enough to see every heap allocation.
void* operator new(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace stage;

struct BenchConfig {
  bool fast = false;
  int num_rows = 8000;
  int num_features = 33;
  int num_members = 10;
  int num_rounds = 200;
  int single_row_iters = 3000;
  int alloc_probe_iters = 256;
};

BenchConfig MakeBenchConfig() {
  BenchConfig config;
  const char* fast = std::getenv("STAGE_BENCH_FAST");
  if (fast != nullptr && fast[0] != '\0' && fast[0] != '0') {
    config.fast = true;
    config.num_rows = 1200;
    config.num_members = 4;
    config.num_rounds = 30;
    config.single_row_iters = 300;
    config.alloc_probe_iters = 64;
  }
  return config;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Synthetic regression task shaped like the plan-vector workload: a few
// strong features, interactions, and multiplicative noise.
gbt::Dataset MakeData(const BenchConfig& config, std::vector<float>* rows) {
  Rng rng(7);
  gbt::Dataset data(config.num_features);
  data.Reserve(static_cast<size_t>(config.num_rows));
  rows->assign(
      static_cast<size_t>(config.num_rows) * config.num_features, 0.0f);
  for (int r = 0; r < config.num_rows; ++r) {
    float* row = rows->data() +
                 static_cast<size_t>(r) * config.num_features;
    for (int f = 0; f < config.num_features; ++f) {
      row[f] = static_cast<float>(rng.NextUniform(0.0, 4.0));
    }
    const double label = 0.8 * row[0] + 0.5 * row[1] * row[2] +
                         std::sin(row[3]) + rng.NextGaussian(0.0, 0.2);
    data.AddRow(row, label);
  }
  return data;
}

gbt::EnsembleConfig MakeEnsembleConfig(const BenchConfig& config) {
  gbt::EnsembleConfig ensemble;
  ensemble.num_members = config.num_members;
  ensemble.member.num_rounds = config.num_rounds;
  ensemble.member.seed = 42;
  return ensemble;
}

// One ensemble member in the pre-rewrite form: its base scores and its
// node-vector trees, trees[round][output], as the trainer built them.
struct BaselineMember {
  std::vector<double> base_scores;
  std::vector<std::vector<gbt::RegressionTree>> trees;
};

// Trains every member of the ensemble `config` describes again, keeping
// the trainer's node trees, which the trained models no longer hold. Each
// member gets the seed BayesianGbtEnsemble::Train gives it, so these are
// the ensemble's trees; main checks that they predict its bits.
std::vector<BaselineMember> TrainBaselineMembers(
    const gbt::Dataset& data, const gbt::EnsembleConfig& config) {
  std::vector<BaselineMember> members(
      static_cast<size_t>(config.num_members));
  ThreadPool::Shared().ParallelFor(members.size(), [&](size_t k) {
    const auto loss = gbt::MakeGaussianNllLoss();
    members[k].base_scores =
        gbt::GbdtModel::Train(data, *loss,
                              gbt::BayesianGbtEnsemble::MemberConfig(
                                  config, static_cast<int>(k)),
                              &members[k].trees)
            .base_scores();
  });
  return members;
}

// The pre-rewrite GbdtModel::Predict, verbatim semantics: allocate the
// result vector, then walk the per-round node-vector trees.
std::vector<double> BaselineMemberPredict(const BaselineMember& member,
                                          const float* row) {
  std::vector<double> out = member.base_scores;
  for (const auto& round : member.trees) {
    for (size_t j = 0; j < round.size(); ++j) {
      out[j] += round[j].Predict(row);
    }
  }
  return out;
}

// The pre-rewrite BayesianGbtEnsemble::Predict on top of it.
gbt::BayesianGbtEnsemble::Prediction BaselineEnsemblePredict(
    const std::vector<BaselineMember>& members, const float* row) {
  const double k = static_cast<double>(members.size());
  double sum_mu = 0.0;
  double sum_mu_sq = 0.0;
  double sum_var = 0.0;
  for (const BaselineMember& member : members) {
    const std::vector<double> pred = BaselineMemberPredict(member, row);
    const double mu = pred[0];
    const double sigma_sq = std::exp(std::clamp(pred[1], -12.0, 12.0));
    sum_mu += mu;
    sum_mu_sq += mu * mu;
    sum_var += sigma_sq;
  }
  gbt::BayesianGbtEnsemble::Prediction out;
  out.mean = sum_mu / k;
  out.model_variance = std::max(0.0, sum_mu_sq / k - out.mean * out.mean);
  out.data_variance = sum_var / k;
  return out;
}

struct LatencyStats {
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double mean_ns = 0.0;
};

template <typename Fn>
LatencyStats MeasureSingleRow(const BenchConfig& config,
                              const std::vector<float>& rows, Fn&& predict,
                              double* checksum) {
  const size_t num_rows = rows.size() / config.num_features;
  std::vector<double> nanos;
  nanos.reserve(static_cast<size_t>(config.single_row_iters));
  double sum = 0.0;
  for (int i = 0; i < config.single_row_iters; ++i) {
    const float* row = rows.data() + (static_cast<size_t>(i) % num_rows) *
                                         config.num_features;
    const auto start = std::chrono::steady_clock::now();
    sum += predict(row);
    nanos.push_back(SecondsSince(start) * 1e9);
  }
  *checksum += sum;
  LatencyStats stats;
  stats.p50_ns = Quantile(nanos, 0.5);
  stats.p99_ns = Quantile(nanos, 0.99);
  double total = 0.0;
  for (double v : nanos) total += v;
  stats.mean_ns = total / static_cast<double>(nanos.size());
  return stats;
}

template <typename Fn>
double AllocationsPerCall(int iters, Fn&& call) {
  g_allocations.store(0, std::memory_order_relaxed);
  g_count_allocations.store(true, std::memory_order_relaxed);
  for (int i = 0; i < iters; ++i) call();
  g_count_allocations.store(false, std::memory_order_relaxed);
  return static_cast<double>(g_allocations.load(std::memory_order_relaxed)) /
         static_cast<double>(iters);
}

}  // namespace

int main() {
  const BenchConfig config = MakeBenchConfig();
  std::vector<float> rows;
  const gbt::Dataset data = MakeData(config, &rows);
  const gbt::EnsembleConfig ensemble_config = MakeEnsembleConfig(config);

  // -- Training --------------------------------------------------------
  const auto member_start = std::chrono::steady_clock::now();
  const auto nll_loss = gbt::MakeGaussianNllLoss();
  const gbt::GbdtModel member =
      gbt::GbdtModel::Train(data, *nll_loss, ensemble_config.member);
  const double member_train_seconds = SecondsSince(member_start);

  const auto ensemble_start = std::chrono::steady_clock::now();
  const gbt::BayesianGbtEnsemble ensemble =
      gbt::BayesianGbtEnsemble::Train(data, ensemble_config);
  const double ensemble_train_seconds = SecondsSince(ensemble_start);
  std::printf("trained: member %.3fs, ensemble (%d members) %.3fs, "
              "member rounds used %d\n",
              member_train_seconds, ensemble.num_members(),
              ensemble_train_seconds, member.rounds_used());
  const std::vector<BaselineMember> baseline_members =
      TrainBaselineMembers(data, ensemble_config);
  for (size_t r = 0; r < 64; ++r) {
    const float* row = rows.data() + r * config.num_features;
    if (BaselineEnsemblePredict(baseline_members, row).mean !=
        ensemble.Predict(row).mean) {
      std::fprintf(stderr, "baseline trees differ from the ensemble's\n");
      return 1;
    }
  }

  // -- Single-row latency ---------------------------------------------
  double checksum = 0.0;
  const LatencyStats baseline = MeasureSingleRow(
      config, rows,
      [&](const float* row) {
        return BaselineEnsemblePredict(baseline_members, row).mean;
      },
      &checksum);
  const LatencyStats flat = MeasureSingleRow(
      config, rows,
      [&](const float* row) { return ensemble.Predict(row).mean; },
      &checksum);
  const double single_row_speedup =
      flat.p50_ns > 0.0 ? baseline.p50_ns / flat.p50_ns : 0.0;
  std::printf("single-row p50: baseline %.0fns, flat %.0fns (%.2fx); "
              "p99: baseline %.0fns, flat %.0fns\n",
              baseline.p50_ns, flat.p50_ns, single_row_speedup,
              baseline.p99_ns, flat.p99_ns);

  // -- Allocations per predict ----------------------------------------
  const float* probe_row = rows.data();
  const double baseline_allocs =
      AllocationsPerCall(config.alloc_probe_iters, [&] {
        checksum += BaselineEnsemblePredict(baseline_members, probe_row).mean;
      });
  const double flat_allocs = AllocationsPerCall(config.alloc_probe_iters, [&] {
    checksum += ensemble.Predict(probe_row).mean;
  });
  std::printf("allocations/predict: baseline %.1f, flat %.1f "
              "(checksum %.6f)\n",
              baseline_allocs, flat_allocs, checksum);

  // -- JSON ------------------------------------------------------------
  std::FILE* json = std::fopen("BENCH_gbt_hot_path.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_gbt_hot_path.json for write\n");
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"config\": {\"fast\": %s, \"num_rows\": %d, "
               "\"num_features\": %d, \"num_members\": %d, "
               "\"num_rounds\": %d, \"pool_threads\": %zu},\n"
               "  \"train\": {\"member_seconds\": %.6f, "
               "\"ensemble_seconds\": %.6f, \"member_rounds_used\": %d},\n"
               "  \"single_row\": {\n"
               "    \"baseline_p50_ns\": %.1f, \"baseline_p99_ns\": %.1f, "
               "\"baseline_mean_ns\": %.1f,\n"
               "    \"flat_p50_ns\": %.1f, \"flat_p99_ns\": %.1f, "
               "\"flat_mean_ns\": %.1f,\n"
               "    \"speedup_p50\": %.3f\n"
               "  },\n"
               "  \"allocations_per_predict\": "
               "{\"baseline\": %.2f, \"flat\": %.2f}\n"
               "}\n",
               config.fast ? "true" : "false", config.num_rows,
               config.num_features, config.num_members, config.num_rounds,
               ThreadPool::Shared().num_threads(), member_train_seconds,
               ensemble_train_seconds, member.rounds_used(), baseline.p50_ns,
               baseline.p99_ns, baseline.mean_ns, flat.p50_ns, flat.p99_ns,
               flat.mean_ns, single_row_speedup, baseline_allocs,
               flat_allocs);
  std::fclose(json);
  std::printf("wrote BENCH_gbt_hot_path.json\n");
  return 0;
}
