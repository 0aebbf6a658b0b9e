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
// Forward/Backward are the naive single-example reference loops;
// ForwardBatch/BackwardBatch run the blocked GEMM kernels (nn/gemm.h) over
// whole batches and are bit-for-bit identical per row (the kernels keep
// each output element's naive accumulation order — see gemm.h). The
// forward GEMM reads W as packed 16-column panels, a derived copy the
// layer keeps beside W.
class Linear {
 public:
  Linear() = default;

  void Init(int in_dim, int out_dim, Rng& rng);

  int in_dim() const { return in_dim_; }
  int out_dim() const { return out_dim_; }

  // y (out_dim) = W x (in_dim) + b.
  void Forward(const float* x, float* y) const;

  // y [rows x out_dim] = x [rows x in_dim] W^T + b. Row blocks fan out on
  // `pool` when provided; results never depend on it.
  void ForwardBatch(const float* x, int rows, float* y,
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
  bool Load(std::istream& in);
  size_t MemoryBytes() const { return w_.MemoryBytes() + b_.MemoryBytes(); }

 private:
  // Rebuilds panels_ from w_. Called from every mutation point (Init /
  // Load / Step) so const Forward paths can read panels_ concurrently
  // without locks.
  void RefreshPanels();

  int in_dim_ = 0;
  int out_dim_ = 0;
  Param w_;  // Row-major [out_dim x in_dim].
  Param b_;  // [out_dim].
  // W as packed panels (gemm.h): ceil(out_dim / 16) cache-line aligned
  // [in_dim x 16] blocks, the tail block zero-padded, so the forward GEMM
  // reads each panel once per call. Derived cache — never serialized,
  // refreshed whenever w_ changes.
  PanelVector panels_;
};

}  // namespace stage::nn

#endif  // STAGE_NN_LINEAR_H_
