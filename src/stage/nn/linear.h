#ifndef STAGE_NN_LINEAR_H_
#define STAGE_NN_LINEAR_H_

#include <istream>
#include <ostream>
#include <vector>

#include "stage/common/rng.h"
#include "stage/common/thread_pool.h"
#include "stage/nn/gemm.h"
#include "stage/nn/param.h"

namespace stage::nn {

// A fully connected layer y = W x + b with manual backward. Gradients are
// accumulated into the Params; callers drive ZeroGrad/Step around batches.
//
// W is kept as the fp32 master (trained by Adam, saved and loaded) plus
// two packed copies for the forward GEMM (nn/gemm.h), rebuilt together in
// one pass whenever W changes: fp32 panels, which a training forward reads,
// and bf16 panels, the round-to-nearest-even of each weight, which an eval
// forward reads at half the bytes. So training is unchanged by the bf16
// form, and a loaded model rounds the same master and serves the same bits
// as the model that saved it.
//
// Forward/Backward are the naive single-example reference loops: Forward
// is the eval reference (it multiplies by each weight's bf16 rounding),
// Backward differentiates the fp32 training forward. ForwardBatch and
// BackwardBatch run the blocked GEMM kernels over whole batches: an eval
// ForwardBatch row is bit-for-bit Forward, a training one the same loop on
// the fp32 weights, and BackwardBatch is bit-for-bit Backward (the kernels
// keep each output element's naive accumulation order; see gemm.h).
class Linear {
 public:
  Linear() = default;

  void Init(int in_dim, int out_dim, Rng& rng);

  int in_dim() const { return in_dim_; }
  int out_dim() const { return out_dim_; }

  // y (out_dim) = W' x (in_dim) + b, where W' is W rounded to bf16: the
  // eval forward, one example at a time.
  void Forward(const float* x, float* y) const;

  // y [rows x out_dim] = x [rows x in_dim] W^T + b. An eval pass (`train`
  // false) reads the bf16 panels and equals Forward per row; a training
  // pass reads the fp32 panels. Row blocks fan out on `pool` when provided;
  // results never depend on it.
  void ForwardBatch(const float* x, int rows, float* y, bool train,
                    ThreadPool* pool = nullptr) const;

  // Accumulates parameter gradients from (x, dy) and, when dx != nullptr,
  // adds W^T dy into dx (dx must be pre-initialized by the caller).
  void Backward(const float* x, const float* dy, float* dx);

  // Batched Backward over rows examples (x [rows x in_dim], dy
  // [rows x out_dim], dx [rows x in_dim] or null). Gradient accumulation is
  // tiled so bytes are identical for any pool width, including none.
  void BackwardBatch(const float* x, const float* dy, int rows, float* dx,
                     ThreadPool* pool = nullptr);

  void ZeroGrad();
  void Step(const AdamConfig& config, double grad_divisor);
  void Save(std::ostream& out) const;
  // Fails, leaving this layer untouched, on a short or malformed stream, a
  // non-finite value, or a weight whose bf16 rounding is infinite.
  bool Load(std::istream& in);
  size_t MemoryBytes() const { return w_.MemoryBytes() + b_.MemoryBytes(); }

 private:
  // Rebuilds both panel forms from w_ in one pass. Called from every
  // mutation point (Init / Load / Step) so const Forward paths can read
  // the panels concurrently without locks.
  void RefreshPanels();

  int in_dim_ = 0;
  int out_dim_ = 0;
  Param w_;  // Row-major [out_dim x in_dim], the fp32 master.
  Param b_;  // [out_dim].
  // W as packed panels (gemm.h): ceil(out_dim / 16) cache-line aligned
  // [in_dim x 16] blocks, the tail block zero-padded, so the forward GEMM
  // reads each panel once per call. panels_ holds W as is for the training
  // forward; bf16_panels_ its bf16 rounding for the eval forward. Derived
  // caches — never serialized, refreshed whenever w_ changes.
  PanelVector<float> panels_;
  PanelVector<Bf16> bf16_panels_;
};

}  // namespace stage::nn

#endif  // STAGE_NN_LINEAR_H_
