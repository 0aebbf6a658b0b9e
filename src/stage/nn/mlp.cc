#include "stage/nn/mlp.h"

#include <algorithm>
#include <utility>

#include "stage/common/macros.h"
#include "stage/common/serialize.h"

namespace stage::nn {

void Mlp::Init(const std::vector<int>& dims, Rng& rng) {
  STAGE_CHECK(dims.size() >= 2);
  dims_ = dims;
  layers_.resize(dims.size() - 1);
  for (size_t l = 0; l < layers_.size(); ++l) {
    layers_[l].Init(dims[l], dims[l + 1], rng);
  }
}

const float* Mlp::Forward(const float* x, Workspace* ws, bool train,
                          float dropout, Rng* rng) const {
  return ForwardBatch(x, /*rows=*/1, ws, train, dropout, rng);
}

const float* Mlp::ForwardBatch(const float* x, int rows, Workspace* ws,
                               bool train, float dropout, Rng* rng,
                               ThreadPool* pool) const {
  STAGE_CHECK(ws != nullptr);
  STAGE_CHECK(rows > 0);
  const size_t num_layers = layers_.size();
  const bool masked = train && dropout > 0.0f;
  if (masked) STAGE_CHECK(rng != nullptr);

  ws->arena.Reset();
  ws->rows = rows;
  ws->train = train;
  ws->acts.assign(num_layers + 1, nullptr);
  ws->masks.assign(num_layers, nullptr);
  ws->acts[0] = ws->arena.Alloc(static_cast<size_t>(rows) * dims_[0]);
  std::copy(x, x + static_cast<size_t>(rows) * dims_[0], ws->acts[0]);

  for (size_t l = 0; l < num_layers; ++l) {
    const size_t count = static_cast<size_t>(rows) * dims_[l + 1];
    ws->acts[l + 1] = ws->arena.Alloc(count);
    layers_[l].ForwardBatch(ws->acts[l], rows, ws->acts[l + 1], train, pool);
    const bool hidden = l + 1 < num_layers;
    if (!hidden) break;
    float* act = ws->acts[l + 1];
    for (size_t i = 0; i < count; ++i) {
      if (act[i] < 0.0f) act[i] = 0.0f;  // ReLU.
    }
    if (masked) {
      // Masks are drawn on this thread in row-major element order: the rng
      // stream — hence the trained model — never depends on the pool.
      const float scale = 1.0f / (1.0f - dropout);
      float* mask = ws->arena.Alloc(count);
      ws->masks[l] = mask;
      for (size_t i = 0; i < count; ++i) {
        mask[i] = rng->NextBernoulli(dropout) ? 0.0f : scale;
        act[i] *= mask[i];
      }
    }
  }
  return ws->acts[num_layers];
}

void Mlp::Backward(const float* dout, Workspace& ws, float* dx) {
  BackwardBatch(dout, ws, dx);
}

void Mlp::BackwardBatch(const float* dout, Workspace& ws, float* dx,
                        ThreadPool* pool) {
  const size_t num_layers = layers_.size();
  STAGE_CHECK_MSG(ws.train, "backward needs a training forward");
  STAGE_CHECK(ws.acts.size() == num_layers + 1);
  const int rows = ws.rows;
  STAGE_CHECK(rows > 0);

  // Backward scratch comes from the same arena, *after* the forward's
  // buffers; the arena is rewound by the next Forward.
  float* delta = ws.arena.Alloc(static_cast<size_t>(rows) * dims_.back());
  std::copy(dout, dout + static_cast<size_t>(rows) * dims_.back(), delta);
  for (size_t l = num_layers; l-- > 0;) {
    float* dprev = ws.arena.AllocZeroed(static_cast<size_t>(rows) * dims_[l]);
    layers_[l].BackwardBatch(ws.acts[l], delta, rows, dprev, pool);
    if (l > 0) {
      // Backprop through the hidden ReLU (+ dropout) of layer l-1. A zero
      // activation means either ReLU cut it or dropout dropped it; both
      // zero the gradient. A surviving dropout unit re-applies its scale.
      const float* act = ws.acts[l];
      const float* mask = ws.masks[l - 1];
      const size_t count = static_cast<size_t>(rows) * dims_[l];
      for (size_t i = 0; i < count; ++i) {
        if (act[i] <= 0.0f) {
          dprev[i] = 0.0f;
        } else if (mask != nullptr) {
          dprev[i] *= mask[i];  // mask holds 0 or the inverted-dropout scale.
        }
      }
    }
    delta = dprev;
  }
  if (dx != nullptr) {
    const size_t count = static_cast<size_t>(rows) * dims_[0];
    for (size_t i = 0; i < count; ++i) dx[i] += delta[i];
  }
}

void Mlp::ZeroGrad() {
  for (Linear& layer : layers_) layer.ZeroGrad();
}

void Mlp::Step(const AdamConfig& config, double grad_divisor) {
  for (Linear& layer : layers_) layer.Step(config, grad_divisor);
}

size_t Mlp::MemoryBytes() const {
  size_t bytes = 0;
  for (const Linear& layer : layers_) bytes += layer.MemoryBytes();
  return bytes;
}

void Mlp::Save(std::ostream& out) const {
  WriteVector(out, std::vector<int32_t>(dims_.begin(), dims_.end()));
  for (const Linear& layer : layers_) layer.Save(out);
}

bool Mlp::Load(std::istream& in) {
  std::vector<int32_t> dims;
  if (!ReadVector(in, &dims) || dims.size() < 2) return false;
  for (int32_t d : dims) {
    if (d <= 0) return false;
  }
  std::vector<Linear> layers(dims.size() - 1);
  for (size_t l = 0; l < layers.size(); ++l) {
    if (!layers[l].Load(in) || layers[l].in_dim() != dims[l] ||
        layers[l].out_dim() != dims[l + 1]) {
      return false;
    }
  }
  dims_.assign(dims.begin(), dims.end());
  layers_ = std::move(layers);
  return true;
}

}  // namespace stage::nn
