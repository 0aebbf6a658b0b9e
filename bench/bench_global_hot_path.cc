// Global-model hot-path microbenchmark: quantifies the level-batched GEMM
// inference rewrite and the minibatched parallel trainer against the
// original per-node matvec walk. The Naive* structs below replicate the
// pre-rewrite code exactly (fresh workspace vectors per predict, one
// matvec per node per transform, per-example forward/backward training);
// the batched path is the production PredictSeconds/PredictBatch/Train
// code. The naive inference baseline loads the SAME checkpoint bytes as
// the production model and rounds each weight to bf16 as the served
// (eval) forward does, so the bench also acts as a bit-equivalence gate:
// it exits non-zero if any prediction differs. It then times the
// paper-shaped model perfbench's net_escalate serves (hidden 256 x 6
// layers; single-plan and batch-8 per-plan latency) under the same gate,
// and the single-plan pass once more after a 5 ms idle gap per call, and
// reports the weight bytes its served and training forwards stream.
// Emits machine-readable BENCH_global_hot_path.json in the working
// directory.
//
// STAGE_BENCH_FAST=1 shrinks the workload for CI smoke runs.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>
#include <thread>
#include <vector>

#include "stage/common/rng.h"
#include "stage/common/serialize.h"
#include "stage/common/stats.h"
#include "stage/common/thread_pool.h"
#include "stage/fleet/fleet.h"
#include "stage/global/global_model.h"
#include "stage/nn/gemm.h"
#include "stage/plan/featurizer.h"

namespace {

std::atomic<bool> g_count_allocations{false};
std::atomic<uint64_t> g_allocations{0};

}  // namespace

// Counting overrides: the default operator new[] / delete[] forward here,
// so replacing this pair is enough to see every heap allocation. GCC
// falsely pairs the replaced scalar forms with the untouched array/aligned
// forms, so silence that diagnostic for this file.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
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
  int num_instances = 6;     // Last one is held out for eval plans.
  int queries_per_instance = 400;
  int epochs = 4;
  int hidden_dim = 48;
  int num_layers = 3;
  std::vector<int> head_hidden = {64, 32};
  int single_plan_iters = 2000;
  int batch_plans = 2048;
  int batch_iters = 6;
  int alloc_probe_iters = 256;
  // Batch-8 calls timed on the paper-shaped model.
  int paper_batch8_iters = 500;
  // Single-plan calls timed after an idle gap on the paper-shaped model.
  int paper_idle_iters = 200;
};

BenchConfig MakeBenchConfig() {
  BenchConfig config;
  const char* fast = std::getenv("STAGE_BENCH_FAST");
  if (fast != nullptr && fast[0] != '\0' && fast[0] != '0') {
    config.fast = true;
    config.num_instances = 3;
    config.queries_per_instance = 120;
    config.epochs = 1;
    config.hidden_dim = 24;
    config.num_layers = 2;
    config.head_hidden = {24};
    config.single_plan_iters = 300;
    config.batch_plans = 256;
    config.batch_iters = 2;
    config.alloc_probe_iters = 64;
    config.paper_batch8_iters = 75;
    config.paper_idle_iters = 40;
  }
  return config;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// ----------------------------------------------------------------------
// Pre-rewrite reference, replicated verbatim: per-node matvecs, fresh
// workspace vectors every call, per-example training. Loads the SAME
// checkpoint bytes the production model saves.
// ----------------------------------------------------------------------

struct NaiveParam {
  std::vector<float> value, grad, m, v;
  int64_t step_count = 0;

  void Init(size_t size, float scale, Rng& rng) {
    value.resize(size);
    grad.assign(size, 0.0f);
    m.assign(size, 0.0f);
    v.assign(size, 0.0f);
    for (float& x : value) {
      x = static_cast<float>(rng.NextUniform(-scale, scale));
    }
    step_count = 0;
  }

  void ZeroGrad() {
    for (float& g : grad) g = 0.0f;
  }

  void Step(const nn::AdamConfig& config, double grad_divisor) {
    ++step_count;
    const float inv = static_cast<float>(1.0 / grad_divisor);
    const float bias1 =
        1.0f - std::pow(config.beta1, static_cast<float>(step_count));
    const float bias2 =
        1.0f - std::pow(config.beta2, static_cast<float>(step_count));
    for (size_t i = 0; i < value.size(); ++i) {
      float g = grad[i] * inv + config.weight_decay * value[i];
      m[i] = config.beta1 * m[i] + (1.0f - config.beta1) * g;
      v[i] = config.beta2 * v[i] + (1.0f - config.beta2) * g * g;
      const float m_hat = m[i] / bias1;
      const float v_hat = v[i] / bias2;
      value[i] -=
          config.learning_rate * m_hat / (std::sqrt(v_hat) + config.epsilon);
    }
  }

  bool Load(std::istream& in) {
    if (!ReadVector(in, &value)) return false;
    grad.assign(value.size(), 0.0f);
    m.assign(value.size(), 0.0f);
    v.assign(value.size(), 0.0f);
    step_count = 0;
    return true;
  }
};

struct NaiveLinear {
  int in_dim = 0;
  int out_dim = 0;
  NaiveParam w, b;

  void Init(int in, int out, Rng& rng) {
    in_dim = in;
    out_dim = out;
    const float scale = std::sqrt(6.0f / static_cast<float>(in));
    w.Init(static_cast<size_t>(in) * out, scale, rng);
    b.Init(static_cast<size_t>(out), 0.0f, rng);
  }

  void Forward(const float* x, float* y) const {
    for (int o = 0; o < out_dim; ++o) {
      const float* row = w.value.data() + static_cast<size_t>(o) * in_dim;
      float acc = b.value[o];
      for (int i = 0; i < in_dim; ++i) acc += row[i] * x[i];
      y[o] = acc;
    }
  }

  void Backward(const float* x, const float* dy, float* dx) {
    for (int o = 0; o < out_dim; ++o) {
      const float g = dy[o];
      if (g == 0.0f) continue;
      float* wg_row = w.grad.data() + static_cast<size_t>(o) * in_dim;
      const float* w_row = w.value.data() + static_cast<size_t>(o) * in_dim;
      b.grad[o] += g;
      for (int i = 0; i < in_dim; ++i) {
        wg_row[i] += g * x[i];
        if (dx != nullptr) dx[i] += g * w_row[i];
      }
    }
  }

  void ZeroGrad() {
    w.ZeroGrad();
    b.ZeroGrad();
  }

  void Step(const nn::AdamConfig& config, double grad_divisor) {
    w.Step(config, grad_divisor);
    b.Step(config, grad_divisor);
  }

  // Loads a checkpointed layer as the served forward sees it: each weight
  // rounded to bf16, the value nn::Linear's eval panels widen back.
  bool Load(std::istream& in) {
    int32_t in32 = 0;
    int32_t out32 = 0;
    if (!ReadPod(in, &in32) || !ReadPod(in, &out32)) return false;
    if (in32 <= 0 || out32 <= 0) return false;
    if (!w.Load(in) || !b.Load(in)) return false;
    for (float& x : w.value) x = nn::Bf16ToFloat(nn::RoundToBf16(x));
    in_dim = in32;
    out_dim = out32;
    return true;
  }
};

struct NaiveMlpWs {
  std::vector<std::vector<float>> acts;
  std::vector<std::vector<float>> masks;
};

struct NaiveMlp {
  std::vector<int> dims;
  std::vector<NaiveLinear> layers;

  void Init(const std::vector<int>& d, Rng& rng) {
    dims = d;
    layers.resize(dims.size() - 1);
    for (size_t l = 0; l < layers.size(); ++l) {
      layers[l].Init(dims[l], dims[l + 1], rng);
    }
  }

  const float* Forward(const float* x, NaiveMlpWs* ws, bool train = false,
                       float dropout = 0.0f, Rng* rng = nullptr) const {
    const size_t num_layers = layers.size();
    ws->acts.resize(num_layers + 1);
    ws->masks.assign(num_layers, {});
    ws->acts[0].assign(x, x + dims[0]);
    for (size_t l = 0; l < num_layers; ++l) {
      ws->acts[l + 1].resize(dims[l + 1]);
      layers[l].Forward(ws->acts[l].data(), ws->acts[l + 1].data());
      if (l + 1 >= num_layers) break;
      std::vector<float>& act = ws->acts[l + 1];
      for (float& a : act) {
        if (a < 0.0f) a = 0.0f;  // ReLU.
      }
      if (train && dropout > 0.0f) {
        const float scale = 1.0f / (1.0f - dropout);
        std::vector<float>& mask = ws->masks[l];
        mask.resize(act.size());
        for (size_t i = 0; i < act.size(); ++i) {
          mask[i] = rng->NextBernoulli(dropout) ? 0.0f : scale;
          act[i] *= mask[i];
        }
      }
    }
    return ws->acts.back().data();
  }

  void Backward(const float* dout, NaiveMlpWs& ws, float* dx) {
    const size_t num_layers = layers.size();
    std::vector<float> delta(dout, dout + dims.back());
    std::vector<float> dprev;
    for (size_t l = num_layers; l-- > 0;) {
      dprev.assign(dims[l], 0.0f);
      layers[l].Backward(ws.acts[l].data(), delta.data(), dprev.data());
      if (l > 0) {
        const std::vector<float>& act = ws.acts[l];
        const std::vector<float>& mask = ws.masks[l - 1];
        for (int i = 0; i < dims[l]; ++i) {
          if (act[i] <= 0.0f) {
            dprev[i] = 0.0f;
          } else if (!mask.empty()) {
            dprev[i] *= mask[i];
          }
        }
      }
      delta = dprev;
    }
    if (dx != nullptr) {
      for (int i = 0; i < dims[0]; ++i) dx[i] += delta[i];
    }
  }

  void ZeroGrad() {
    for (NaiveLinear& layer : layers) layer.ZeroGrad();
  }

  void Step(const nn::AdamConfig& config, double grad_divisor) {
    for (NaiveLinear& layer : layers) layer.Step(config, grad_divisor);
  }

  bool Load(std::istream& in) {
    std::vector<int32_t> d32;
    if (!ReadVector(in, &d32) || d32.size() < 2) return false;
    dims.assign(d32.begin(), d32.end());
    layers.assign(dims.size() - 1, NaiveLinear());
    for (NaiveLinear& layer : layers) {
      if (!layer.Load(in)) return false;
    }
    return true;
  }
};

struct NaiveGcnWs {
  int num_nodes = 0;
  std::vector<std::vector<float>> acts;
  std::vector<std::vector<float>> aggs;
  std::vector<std::vector<float>> masks;
};

struct NaiveTreeGcn {
  int input_dim = 0;
  int hidden_dim = 0;
  int num_layers = 0;
  float dropout = 0.0f;
  std::vector<NaiveLinear> self;
  std::vector<NaiveLinear> child;

  int LayerInDim(int l) const { return l == 0 ? input_dim : hidden_dim; }

  void Init(int in, int hidden, int layers, float drop, Rng& rng) {
    input_dim = in;
    hidden_dim = hidden;
    num_layers = layers;
    dropout = drop;
    self.resize(layers);
    child.resize(layers);
    for (int l = 0; l < layers; ++l) {
      self[l].Init(LayerInDim(l), hidden, rng);
      child[l].Init(LayerInDim(l), hidden, rng);
    }
  }

  const float* Forward(const float* node_features, int num_nodes,
                       const std::vector<std::vector<int32_t>>& children,
                       NaiveGcnWs* ws, bool train = false,
                       Rng* rng = nullptr) const {
    const int h = hidden_dim;
    ws->num_nodes = num_nodes;
    ws->acts.resize(num_layers + 1);
    ws->aggs.resize(num_layers);
    ws->masks.assign(num_layers, {});
    ws->acts[0].assign(node_features,
                       node_features +
                           static_cast<size_t>(num_nodes) * input_dim);
    std::vector<float> z(h);
    std::vector<float> child_part(h);
    for (int l = 0; l < num_layers; ++l) {
      const int in_dim = LayerInDim(l);
      const std::vector<float>& in = ws->acts[l];
      ws->aggs[l].assign(static_cast<size_t>(num_nodes) * in_dim, 0.0f);
      ws->acts[l + 1].resize(static_cast<size_t>(num_nodes) * h);
      if (train && dropout > 0.0f) {
        ws->masks[l].resize(static_cast<size_t>(num_nodes) * h);
      }
      for (int i = 0; i < num_nodes; ++i) {
        float* agg = &ws->aggs[l][static_cast<size_t>(i) * in_dim];
        if (!children[i].empty()) {
          const float inv = 1.0f / static_cast<float>(children[i].size());
          for (int32_t c : children[i]) {
            const float* cf = &in[static_cast<size_t>(c) * in_dim];
            for (int j = 0; j < in_dim; ++j) agg[j] += cf[j];
          }
          for (int j = 0; j < in_dim; ++j) agg[j] *= inv;
        }
        self[l].Forward(&in[static_cast<size_t>(i) * in_dim], z.data());
        child[l].Forward(agg, child_part.data());
        float* out = &ws->acts[l + 1][static_cast<size_t>(i) * h];
        for (int j = 0; j < h; ++j) {
          float v = z[j] + child_part[j];
          v = v > 0.0f ? v : 0.0f;  // ReLU.
          if (!ws->masks[l].empty() && rng != nullptr) {
            const float scale = 1.0f / (1.0f - dropout);
            const float mask = rng->NextBernoulli(dropout) ? 0.0f : scale;
            ws->masks[l][static_cast<size_t>(i) * h + j] = mask;
            v *= mask;
          }
          out[j] = v;
        }
      }
    }
    return &ws->acts[num_layers][0];  // Root is node 0.
  }

  void Backward(const float* droot,
                const std::vector<std::vector<int32_t>>& children,
                NaiveGcnWs& ws) {
    const int h = hidden_dim;
    const int n = ws.num_nodes;
    std::vector<float> dcur(static_cast<size_t>(n) * h, 0.0f);
    for (int j = 0; j < h; ++j) dcur[j] = droot[j];
    std::vector<float> dz(h);
    std::vector<float> dagg;
    std::vector<float> dprev;
    for (int l = num_layers; l-- > 0;) {
      const int in_dim = LayerInDim(l);
      dprev.assign(static_cast<size_t>(n) * in_dim, 0.0f);
      const std::vector<float>& act_out = ws.acts[l + 1];
      const std::vector<float>& mask = ws.masks[l];
      for (int i = 0; i < n; ++i) {
        bool any = false;
        for (int j = 0; j < h; ++j) {
          const size_t idx = static_cast<size_t>(i) * h + j;
          float g = dcur[idx];
          if (act_out[idx] <= 0.0f) {
            g = 0.0f;
          } else if (!mask.empty()) {
            g *= mask[idx];
          }
          dz[j] = g;
          any = any || g != 0.0f;
        }
        if (!any) continue;
        float* dself = &dprev[static_cast<size_t>(i) * in_dim];
        self[l].Backward(&ws.acts[l][static_cast<size_t>(i) * in_dim],
                         dz.data(), dself);
        dagg.assign(in_dim, 0.0f);
        child[l].Backward(&ws.aggs[l][static_cast<size_t>(i) * in_dim],
                          dz.data(), dagg.data());
        if (!children[i].empty()) {
          const float inv = 1.0f / static_cast<float>(children[i].size());
          for (int32_t c : children[i]) {
            float* dchild = &dprev[static_cast<size_t>(c) * in_dim];
            for (int j = 0; j < in_dim; ++j) dchild[j] += dagg[j] * inv;
          }
        }
      }
      dcur = dprev;
    }
  }

  void ZeroGrad() {
    for (NaiveLinear& layer : self) layer.ZeroGrad();
    for (NaiveLinear& layer : child) layer.ZeroGrad();
  }

  void Step(const nn::AdamConfig& config, double grad_divisor) {
    for (NaiveLinear& layer : self) layer.Step(config, grad_divisor);
    for (NaiveLinear& layer : child) layer.Step(config, grad_divisor);
  }

  bool Load(std::istream& in) {
    int32_t in32 = 0;
    int32_t hidden32 = 0;
    int32_t layers32 = 0;
    if (!ReadPod(in, &in32) || !ReadPod(in, &hidden32) ||
        !ReadPod(in, &layers32) || !ReadPod(in, &dropout)) {
      return false;
    }
    input_dim = in32;
    hidden_dim = hidden32;
    num_layers = layers32;
    self.assign(num_layers, NaiveLinear());
    child.assign(num_layers, NaiveLinear());
    for (NaiveLinear& layer : self) {
      if (!layer.Load(in)) return false;
    }
    for (NaiveLinear& layer : child) {
      if (!layer.Load(in)) return false;
    }
    return true;
  }
};

double HuberGrad(double r, double delta) {
  if (r > delta) return delta;
  if (r < -delta) return -delta;
  return r;
}

struct NaiveGlobalModel {
  NaiveTreeGcn gcn;
  NaiveMlp head;

  // The production Save() stream: header, gcn, head.
  bool Load(std::istream& in) {
    if (!ReadHeader(in, 0x53474d4c, 1)) return false;
    return gcn.Load(in) && head.Load(in);
  }

  double ForwardTarget(const global::GlobalExample& example) const {
    NaiveGcnWs gcn_ws;
    NaiveMlpWs head_ws;
    std::vector<float> concat(gcn.hidden_dim + global::kSystemFeatureDim);
    const int n = static_cast<int>(example.children.size());
    const float* root = gcn.Forward(example.node_features.data(), n,
                                    example.children, &gcn_ws);
    std::copy(root, root + gcn.hidden_dim, concat.begin());
    std::copy(example.system_features.begin(), example.system_features.end(),
              concat.begin() + gcn.hidden_dim);
    const float* out = head.Forward(concat.data(), &head_ws);
    return static_cast<double>(out[0]);
  }

  double PredictSeconds(const plan::Plan& plan,
                        const fleet::InstanceConfig& instance,
                        int concurrent_queries) const {
    const global::GlobalExample example =
        global::MakeGlobalExample(plan, instance, concurrent_queries, 0.0);
    const double target = std::clamp(ForwardTarget(example), 0.0, 14.0);
    return std::max(0.0, std::expm1(target));
  }

  // The pre-rewrite trainer: per-example forward/backward, one tree at a
  // time, fresh shuffles per epoch. Used only for the wall-clock baseline.
  static NaiveGlobalModel Train(
      const std::vector<global::GlobalExample>& examples,
      const global::GlobalModelConfig& config) {
    NaiveGlobalModel model;
    Rng rng(config.seed);
    model.gcn.Init(plan::kNodeFeatureDim, config.hidden_dim,
                   config.num_layers, config.dropout, rng);
    std::vector<int> head_dims;
    head_dims.push_back(config.hidden_dim + global::kSystemFeatureDim);
    for (int h : config.head_hidden) head_dims.push_back(h);
    head_dims.push_back(1);
    model.head.Init(head_dims, rng);

    std::vector<size_t> order = rng.Permutation(examples.size());
    size_t num_val = 0;
    if (config.validation_fraction > 0.0 && examples.size() >= 20) {
      num_val = static_cast<size_t>(config.validation_fraction *
                                    static_cast<double>(examples.size()));
    }
    std::vector<size_t> train_rows(order.begin() + num_val, order.end());

    const int concat_dim = config.hidden_dim + global::kSystemFeatureDim;
    std::vector<float> concat(concat_dim);
    std::vector<float> dconcat(concat_dim);
    NaiveGcnWs gcn_ws;
    NaiveMlpWs head_ws;
    for (int epoch = 0; epoch < config.epochs; ++epoch) {
      std::vector<size_t> shuffled;
      shuffled.reserve(train_rows.size());
      for (size_t i : rng.Permutation(train_rows.size())) {
        shuffled.push_back(train_rows[i]);
      }
      train_rows = shuffled;

      size_t index = 0;
      while (index < train_rows.size()) {
        const size_t batch_end =
            std::min(index + static_cast<size_t>(config.batch_size),
                     train_rows.size());
        const double batch_size = static_cast<double>(batch_end - index);
        model.gcn.ZeroGrad();
        model.head.ZeroGrad();
        for (; index < batch_end; ++index) {
          const global::GlobalExample& example = examples[train_rows[index]];
          const int n = static_cast<int>(example.children.size());
          const float* root =
              model.gcn.Forward(example.node_features.data(), n,
                                example.children, &gcn_ws, true, &rng);
          std::copy(root, root + config.hidden_dim, concat.begin());
          std::copy(example.system_features.begin(),
                    example.system_features.end(),
                    concat.begin() + config.hidden_dim);
          const float* out = model.head.Forward(concat.data(), &head_ws, true,
                                                config.dropout, &rng);
          const double residual =
              static_cast<double>(out[0]) - example.target;
          const float dout =
              static_cast<float>(HuberGrad(residual, config.huber_delta));
          std::fill(dconcat.begin(), dconcat.end(), 0.0f);
          model.head.Backward(&dout, head_ws, dconcat.data());
          model.gcn.Backward(dconcat.data(), example.children, gcn_ws);
        }
        model.gcn.Step(config.adam, batch_size);
        model.head.Step(config.adam, batch_size);
      }
    }
    return model;
  }
};

struct LatencyStats {
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double mean_ns = 0.0;
};

LatencyStats Summarize(const std::vector<double>& nanos) {
  LatencyStats stats;
  stats.p50_ns = Quantile(nanos, 0.5);
  stats.p99_ns = Quantile(nanos, 0.99);
  double total = 0.0;
  for (double v : nanos) total += v;
  stats.mean_ns = total / static_cast<double>(nanos.size());
  return stats;
}

// Times `iters` single-plan calls over a rotating window of `plans`. With
// an `idle_gap`, the thread sleeps that long before each call, as a
// serving core idles between predicts at low load, so the call finds its
// caches no longer warm from the one before.
template <typename Fn>
LatencyStats MeasureSinglePlan(int iters,
                               const std::vector<const plan::Plan*>& plans,
                               Fn&& predict, double* checksum,
                               std::chrono::microseconds idle_gap = {}) {
  std::vector<double> nanos;
  nanos.reserve(static_cast<size_t>(iters));
  double sum = 0.0;
  for (int i = 0; i < iters; ++i) {
    const plan::Plan* plan =
        plans[static_cast<size_t>(i) % plans.size()];
    if (idle_gap.count() > 0) std::this_thread::sleep_for(idle_gap);
    const auto start = std::chrono::steady_clock::now();
    sum += predict(*plan);
    nanos.push_back(SecondsSince(start) * 1e9);
  }
  *checksum += sum;
  return Summarize(nanos);
}

// Per-plan latency of 8-plan PredictBatch calls over a rotating window of
// `plans`, with the shared pool the serving path passes for multi-query
// batches.
LatencyStats MeasureBatch8PerPlan(int iters,
                                  const std::vector<const plan::Plan*>& plans,
                                  const global::GlobalModel& model,
                                  const fleet::InstanceConfig& instance,
                                  double* checksum) {
  constexpr size_t kBatch = 8;
  std::vector<global::GlobalQuery> queries(kBatch);
  std::vector<double> out(kBatch, 0.0);
  std::vector<double> nanos;
  nanos.reserve(static_cast<size_t>(iters));
  for (int i = 0; i < iters; ++i) {
    for (size_t j = 0; j < kBatch; ++j) {
      queries[j] = {plans[(static_cast<size_t>(i) * kBatch + j) % plans.size()],
                    2};
    }
    const auto start = std::chrono::steady_clock::now();
    model.PredictBatch(queries, instance, out, &ThreadPool::Shared());
    nanos.push_back(SecondsSince(start) * 1e9 / static_cast<double>(kBatch));
    *checksum += out[i % kBatch];
  }
  return Summarize(nanos);
}

// Best-of-N plans/sec for one full pass over the batch.
template <typename Fn>
double MeasureBatch(const BenchConfig& config, size_t num_plans, Fn&& run) {
  double best = 0.0;
  for (int i = 0; i < config.batch_iters; ++i) {
    const auto start = std::chrono::steady_clock::now();
    run();
    const double seconds = SecondsSince(start);
    best = std::max(best, static_cast<double>(num_plans) / seconds);
  }
  return best;
}

// Bytes of packed weight panels one forward pass over a model of `config`'s
// shape streams, at `element_bytes` per weight: every GCN transform plus
// the head.
size_t PanelBytes(const global::GlobalModelConfig& config,
                  size_t element_bytes) {
  size_t elements = 0;
  for (int l = 0; l < config.num_layers; ++l) {
    // The self and the child transform.
    const int in = l == 0 ? plan::kNodeFeatureDim : config.hidden_dim;
    elements += 2 * nn::PackedPanelSize(config.hidden_dim, in);
  }
  int in = config.hidden_dim + global::kSystemFeatureDim;
  for (const int out : config.head_hidden) {
    elements += nn::PackedPanelSize(out, in);
    in = out;
  }
  elements += nn::PackedPanelSize(1, in);
  return elements * element_bytes;
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

  fleet::FleetConfig fleet_config;
  fleet_config.num_instances = config.num_instances;
  fleet_config.workload.num_queries = config.queries_per_instance;
  fleet_config.seed = 7;
  fleet::FleetGenerator generator(fleet_config);
  const auto fleet = generator.GenerateFleet();

  std::vector<global::GlobalExample> examples;
  for (size_t i = 0; i + 1 < fleet.size(); ++i) {
    for (const auto& event : fleet[i].trace) {
      examples.push_back(global::MakeGlobalExample(
          event.plan, fleet[i].config, event.concurrent_queries,
          event.exec_seconds));
    }
  }
  const auto& eval_instance = fleet.back();
  std::vector<const plan::Plan*> eval_plans;
  for (const auto& event : eval_instance.trace) {
    eval_plans.push_back(&event.plan);
  }

  global::GlobalModelConfig model_config;
  model_config.hidden_dim = config.hidden_dim;
  model_config.num_layers = config.num_layers;
  model_config.head_hidden = config.head_hidden;
  model_config.epochs = config.epochs;

  // -- Training --------------------------------------------------------
  const auto naive_train_start = std::chrono::steady_clock::now();
  const NaiveGlobalModel naive_trained =
      NaiveGlobalModel::Train(examples, model_config);
  const double naive_train_seconds = SecondsSince(naive_train_start);

  const auto train_start = std::chrono::steady_clock::now();
  double val_mae = -1.0;
  const global::GlobalModel model =
      global::GlobalModel::Train(examples, model_config, &val_mae);
  const double train_seconds = SecondsSince(train_start);
  const double train_speedup =
      train_seconds > 0.0 ? naive_train_seconds / train_seconds : 0.0;
  std::printf("train (%zu examples, %d epochs): naive %.3fs, batched %.3fs "
              "(%.2fx), val MAE(log) %.4f\n",
              examples.size(), config.epochs, naive_train_seconds,
              train_seconds, train_speedup, val_mae);

  // Keep the naive-trained model's weights alive as a sanity checksum so
  // the baseline trainer cannot be dead-code eliminated.
  double checksum = naive_trained.PredictSeconds(
      *eval_plans[0], eval_instance.config, 1);

  // -- Bit-equivalence gate -------------------------------------------
  // The naive inference path loads the production checkpoint bytes and
  // must reproduce every prediction exactly.
  std::stringstream checkpoint;
  model.Save(checkpoint);
  NaiveGlobalModel naive;
  if (!naive.Load(checkpoint)) {
    std::fprintf(stderr, "naive baseline failed to parse checkpoint\n");
    return 1;
  }
  size_t mismatches = 0;
  for (size_t i = 0; i < eval_plans.size(); ++i) {
    const int concurrency = static_cast<int>(i % 7);
    const double a =
        naive.PredictSeconds(*eval_plans[i], eval_instance.config,
                             concurrency);
    const double b = model.PredictSeconds(*eval_plans[i],
                                          eval_instance.config, concurrency);
    if (std::memcmp(&a, &b, sizeof(double)) != 0) ++mismatches;
  }
  if (mismatches > 0) {
    std::fprintf(stderr,
                 "FAIL: %zu/%zu batched predictions differ from the naive "
                 "reference\n",
                 mismatches, eval_plans.size());
    return 1;
  }
  std::printf("bit-equivalence: %zu/%zu predictions identical to the naive "
              "reference\n",
              eval_plans.size(), eval_plans.size());

  // -- Single-plan latency --------------------------------------------
  const LatencyStats baseline = MeasureSinglePlan(
      config.single_plan_iters, eval_plans,
      [&](const plan::Plan& plan) {
        return naive.PredictSeconds(plan, eval_instance.config, 2);
      },
      &checksum);
  const LatencyStats batched = MeasureSinglePlan(
      config.single_plan_iters, eval_plans,
      [&](const plan::Plan& plan) {
        return model.PredictSeconds(plan, eval_instance.config, 2);
      },
      &checksum);
  const double single_plan_speedup =
      batched.p50_ns > 0.0 ? baseline.p50_ns / batched.p50_ns : 0.0;
  std::printf("single-plan p50: naive %.0fns, batched %.0fns (%.2fx); "
              "p99: naive %.0fns, batched %.0fns\n",
              baseline.p50_ns, batched.p50_ns, single_plan_speedup,
              baseline.p99_ns, batched.p99_ns);

  // -- Batch throughput ------------------------------------------------
  std::vector<global::GlobalQuery> queries;
  queries.reserve(static_cast<size_t>(config.batch_plans));
  for (int i = 0; i < config.batch_plans; ++i) {
    queries.push_back({eval_plans[static_cast<size_t>(i) % eval_plans.size()],
                       i % 7});
  }
  std::vector<double> batch_out(queries.size(), 0.0);
  const double naive_plans_per_sec =
      MeasureBatch(config, queries.size(), [&] {
        for (size_t i = 0; i < queries.size(); ++i) {
          batch_out[i] = naive.PredictSeconds(*queries[i].plan,
                                              eval_instance.config,
                                              queries[i].concurrent_queries);
        }
      });
  checksum += batch_out[queries.size() / 2];
  const double batched_plans_per_sec =
      MeasureBatch(config, queries.size(), [&] {
        model.PredictBatch(queries, eval_instance.config, batch_out,
                           &ThreadPool::Shared());
      });
  checksum += batch_out[queries.size() / 2];
  const double batch_speedup =
      naive_plans_per_sec > 0.0 ? batched_plans_per_sec / naive_plans_per_sec
                                : 0.0;
  std::printf("batch (%zu plans): naive %.0f plans/s, batched %.0f plans/s "
              "(%.2fx, pool of %zu)\n",
              queries.size(), naive_plans_per_sec, batched_plans_per_sec,
              batch_speedup, ThreadPool::Shared().num_threads());

  // -- Allocations per predict ----------------------------------------
  const plan::Plan* probe_plan = eval_plans[0];
  // Warm the thread-local scratch before counting.
  checksum += model.PredictSeconds(*probe_plan, eval_instance.config, 2);
  const double naive_allocs =
      AllocationsPerCall(config.alloc_probe_iters, [&] {
        checksum +=
            naive.PredictSeconds(*probe_plan, eval_instance.config, 2);
      });
  const double batched_allocs =
      AllocationsPerCall(config.alloc_probe_iters, [&] {
        checksum +=
            model.PredictSeconds(*probe_plan, eval_instance.config, 2);
      });
  std::printf("allocations/predict: naive %.1f, batched %.1f "
              "(checksum %.6f)\n",
              naive_allocs, batched_allocs, checksum);

  // -- Paper-shaped model -------------------------------------------------
  // The 256-wide, 6-layer GCN with a {256, 128} head that perfbench's
  // net_escalate serves: its weights (~3 MB) outgrow a 2 MB per-core L2,
  // so this is where the forward GEMM's panel traffic shows. Same gate as
  // above — the naive walk loads its checkpoint and must reproduce every
  // single-plan and batch-8 prediction bit for bit.
  global::GlobalModelConfig paper_config = model_config;
  paper_config.hidden_dim = 256;
  paper_config.num_layers = 6;
  paper_config.head_hidden = {256, 128};
  paper_config.epochs = 1;
  const global::GlobalModel paper =
      global::GlobalModel::Train(examples, paper_config);
  std::stringstream paper_checkpoint;
  paper.Save(paper_checkpoint);
  NaiveGlobalModel paper_naive;
  if (!paper_naive.Load(paper_checkpoint)) {
    std::fprintf(stderr, "naive baseline failed to parse the paper-shaped "
                         "checkpoint\n");
    return 1;
  }
  size_t paper_mismatches = 0;
  std::vector<global::GlobalQuery> group;
  std::vector<double> group_out;
  for (size_t i = 0; i < eval_plans.size(); i += 8) {
    group.clear();
    for (size_t j = i; j < std::min(i + 8, eval_plans.size()); ++j) {
      group.push_back({eval_plans[j], static_cast<int>(j % 7)});
    }
    group_out.assign(group.size(), -1.0);
    paper.PredictBatch(group, eval_instance.config, group_out,
                       &ThreadPool::Shared());
    for (size_t j = 0; j < group.size(); ++j) {
      const double expected = paper_naive.PredictSeconds(
          *group[j].plan, eval_instance.config, group[j].concurrent_queries);
      const double single = paper.PredictSeconds(
          *group[j].plan, eval_instance.config, group[j].concurrent_queries);
      if (std::memcmp(&expected, &single, sizeof(double)) != 0 ||
          std::memcmp(&expected, &group_out[j], sizeof(double)) != 0) {
        ++paper_mismatches;
      }
    }
  }
  if (paper_mismatches > 0) {
    std::fprintf(stderr,
                 "FAIL: %zu/%zu paper-shaped predictions differ from the "
                 "naive reference\n",
                 paper_mismatches, eval_plans.size());
    return 1;
  }
  const auto paper_predict = [&](const plan::Plan& plan) {
    return paper.PredictSeconds(plan, eval_instance.config, 2);
  };
  const LatencyStats paper_single = MeasureSinglePlan(
      config.single_plan_iters, eval_plans, paper_predict, &checksum);
  const LatencyStats paper_batch8 =
      MeasureBatch8PerPlan(config.paper_batch8_iters, eval_plans, paper,
                           eval_instance.config, &checksum);
  // Hot back-to-back calls understate the pass a server runs: at 200
  // predicts/s its core idles ~5 ms between predicts.
  const LatencyStats paper_idle =
      MeasureSinglePlan(config.paper_idle_iters, eval_plans, paper_predict,
                        &checksum, std::chrono::milliseconds(5));
  const size_t served_weight_bytes =
      PanelBytes(paper_config, sizeof(nn::Bf16));
  const size_t training_weight_bytes =
      PanelBytes(paper_config, sizeof(float));
  std::printf("paper shape (hidden 256 x 6 layers, %zu/%zu predictions "
              "identical to the naive reference): single-plan p50 %.0fns "
              "p99 %.0fns; batch-8 p50 %.0fns/plan; single-plan after a "
              "5 ms idle gap p50 %.0fns; weight panels %.2f MiB served "
              "(bf16), %.2f MiB training (fp32)\n",
              eval_plans.size(), eval_plans.size(), paper_single.p50_ns,
              paper_single.p99_ns, paper_batch8.p50_ns, paper_idle.p50_ns,
              served_weight_bytes / 1048576.0,
              training_weight_bytes / 1048576.0);

  // -- JSON ------------------------------------------------------------
  std::FILE* json = std::fopen("BENCH_global_hot_path.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr,
                 "cannot open BENCH_global_hot_path.json for write\n");
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"config\": {\"fast\": %s, \"num_examples\": %zu, "
               "\"epochs\": %d, \"hidden_dim\": %d, \"num_layers\": %d, "
               "\"pool_threads\": %zu},\n"
               "  \"train\": {\"naive_seconds\": %.6f, "
               "\"batched_seconds\": %.6f, \"speedup\": %.3f, "
               "\"val_mae_log\": %.6f},\n"
               "  \"bit_identical\": true,\n"
               "  \"single_plan\": {\n"
               "    \"naive_p50_ns\": %.1f, \"naive_p99_ns\": %.1f, "
               "\"naive_mean_ns\": %.1f,\n"
               "    \"batched_p50_ns\": %.1f, \"batched_p99_ns\": %.1f, "
               "\"batched_mean_ns\": %.1f,\n"
               "    \"speedup_p50\": %.3f\n"
               "  },\n"
               "  \"batch\": {\"plans\": %zu, "
               "\"naive_plans_per_sec\": %.1f, "
               "\"batched_plans_per_sec\": %.1f, \"speedup\": %.3f},\n"
               "  \"allocations_per_predict\": "
               "{\"naive\": %.2f, \"batched\": %.2f},\n"
               "  \"paper_shape\": {\"hidden_dim\": 256, \"num_layers\": 6, "
               "\"bit_identical\": true, \"plans_checked\": %zu,\n"
               "    \"single_plan_p50_ns\": %.1f, "
               "\"single_plan_p99_ns\": %.1f, "
               "\"single_plan_idle_p50_ns\": %.1f, \"idle_gap_us\": 5000,\n"
               "    \"batch8_per_plan_p50_ns\": %.1f, "
               "\"batch8_per_plan_p99_ns\": %.1f,\n"
               "    \"served_weight_bytes\": %zu, "
               "\"training_weight_bytes\": %zu}\n"
               "}\n",
               config.fast ? "true" : "false", examples.size(), config.epochs,
               config.hidden_dim, config.num_layers,
               ThreadPool::Shared().num_threads(), naive_train_seconds,
               train_seconds, train_speedup, val_mae, baseline.p50_ns,
               baseline.p99_ns, baseline.mean_ns, batched.p50_ns,
               batched.p99_ns, batched.mean_ns, single_plan_speedup,
               queries.size(), naive_plans_per_sec, batched_plans_per_sec,
               batch_speedup, naive_allocs, batched_allocs,
               eval_plans.size(), paper_single.p50_ns, paper_single.p99_ns,
               paper_idle.p50_ns, paper_batch8.p50_ns, paper_batch8.p99_ns,
               served_weight_bytes, training_weight_bytes);
  std::fclose(json);
  std::printf("wrote BENCH_global_hot_path.json\n");
  return 0;
}
