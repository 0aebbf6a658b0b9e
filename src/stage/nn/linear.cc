#include "stage/nn/linear.h"

#include <cmath>
#include <utility>

#include "stage/common/macros.h"
#include "stage/common/serialize.h"
#include "stage/nn/gemm.h"

namespace stage::nn {

void Linear::Init(int in_dim, int out_dim, Rng& rng) {
  STAGE_CHECK(in_dim > 0 && out_dim > 0);
  in_dim_ = in_dim;
  out_dim_ = out_dim;
  // Kaiming-uniform-ish scale for ReLU networks.
  const float scale = std::sqrt(6.0f / static_cast<float>(in_dim));
  w_.Init(static_cast<size_t>(in_dim) * out_dim, scale, rng);
  b_.Init(out_dim, 0.0f, rng);
  RefreshPanels();
}

void Linear::RefreshPanels() {
  const size_t size = PackedPanelSize(out_dim_, in_dim_);
  panels_.resize(size);
  bf16_panels_.resize(size);
  PackPanels(out_dim_, in_dim_, w_.data(), panels_.data(),
             bf16_panels_.data());
}

void Linear::Forward(const float* x, float* y) const {
  const float* w = w_.data();
  const float* b = b_.data();
  for (int o = 0; o < out_dim_; ++o) {
    const float* row = w + static_cast<size_t>(o) * in_dim_;
    float acc = b[o];
    for (int i = 0; i < in_dim_; ++i) {
      acc += Bf16ToFloat(RoundToBf16(row[i])) * x[i];
    }
    y[o] = acc;
  }
}

void Linear::Backward(const float* x, const float* dy, float* dx) {
  float* wg = w_.grad();
  float* bg = b_.grad();
  const float* w = w_.data();
  for (int o = 0; o < out_dim_; ++o) {
    const float g = dy[o];
    if (g == 0.0f) continue;
    float* wg_row = wg + static_cast<size_t>(o) * in_dim_;
    const float* w_row = w + static_cast<size_t>(o) * in_dim_;
    bg[o] += g;
    for (int i = 0; i < in_dim_; ++i) {
      wg_row[i] += g * x[i];
      if (dx != nullptr) dx[i] += g * w_row[i];
    }
  }
}

void Linear::ForwardBatch(const float* x, int rows, float* y, bool train,
                          ThreadPool* pool) const {
  if (train) {
    GemmBias(rows, out_dim_, in_dim_, x, panels_.data(), b_.data(), y, pool);
  } else {
    GemmBias(rows, out_dim_, in_dim_, x, bf16_panels_.data(), b_.data(), y,
             pool);
  }
}

void Linear::BackwardBatch(const float* x, const float* dy, int rows,
                           float* dx, ThreadPool* pool) {
  GemmGradParams(rows, out_dim_, in_dim_, x, dy, w_.grad(), b_.grad(), pool);
  if (dx != nullptr) {
    GemmGradInput(rows, out_dim_, in_dim_, dy, w_.data(), dx, pool);
  }
}

void Linear::ZeroGrad() {
  w_.ZeroGrad();
  b_.ZeroGrad();
}

void Linear::Step(const AdamConfig& config, double grad_divisor) {
  w_.Step(config, grad_divisor);
  b_.Step(config, grad_divisor);
  RefreshPanels();
}

void Linear::Save(std::ostream& out) const {
  WritePod<int32_t>(out, in_dim_);
  WritePod<int32_t>(out, out_dim_);
  w_.Save(out);
  b_.Save(out);
}

bool Linear::Load(std::istream& in) {
  int32_t in_dim = 0;
  int32_t out_dim = 0;
  if (!ReadPod(in, &in_dim) || !ReadPod(in, &out_dim)) return false;
  if (in_dim <= 0 || out_dim <= 0) return false;
  Param w;
  Param b;
  if (!w.Load(in) || !b.Load(in)) return false;
  if (w.size() != static_cast<size_t>(in_dim) * out_dim ||
      b.size() != static_cast<size_t>(out_dim)) {
    return false;
  }
  // Param::Load rejects only non-finite values. A finite weight of
  // magnitude >= 0x1.FFp127 rounds to a bf16 infinity, which would make
  // every eval forward through it non-finite, and the serving path turns
  // that into a silent 0 s prediction.
  for (size_t i = 0; i < w.size(); ++i) {
    if (!std::isfinite(Bf16ToFloat(RoundToBf16(w.data()[i])))) return false;
  }
  in_dim_ = in_dim;
  out_dim_ = out_dim;
  w_ = std::move(w);
  b_ = std::move(b);
  RefreshPanels();
  return true;
}

}  // namespace stage::nn
