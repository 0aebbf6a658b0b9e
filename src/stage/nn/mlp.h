#ifndef STAGE_NN_MLP_H_
#define STAGE_NN_MLP_H_

#include <vector>

#include "stage/common/rng.h"
#include "stage/common/thread_pool.h"
#include "stage/nn/gemm.h"
#include "stage/nn/linear.h"

namespace stage::nn {

// A multi-layer perceptron with ReLU activations between layers (linear
// output) and optional dropout on hidden activations during training.
//
// All execution is batched over the GEMM kernels (nn/gemm.h); the
// single-example Forward/Backward are the rows == 1 case and produce
// bit-for-bit the same values as the naive per-element loops on the
// weights each pass reads, bf16-rounded in eval and fp32 in training
// (linear.h; the kernels preserve each element's accumulation order).
class Mlp {
 public:
  // Scratch for a forward pass and its matching backward, owned by the
  // caller so Mlp stays re-entrant. All buffers live in one Arena that is
  // rewound (not freed) every Forward, so repeated calls perform zero heap
  // allocations once the arena has warmed up to the largest batch seen.
  struct Workspace {
    Arena arena;
    // acts[0] is the input copy [rows x dims[0]]; acts[l+1] the output of
    // layer l (post ReLU/dropout for hidden layers), [rows x dims[l+1]].
    std::vector<float*> acts;
    // Dropout multipliers per hidden layer (nullptr in eval mode or when
    // dropout is off), [rows x dims[l+1]].
    std::vector<float*> masks;
    int rows = 0;
    // Whether the last forward was a training pass; backward needs one,
    // since an eval pass reads the bf16 weights, not the fp32 ones
    // backward differentiates.
    bool train = false;

    // Heap floats retained across calls; stops growing once warm (asserted
    // by nn_test's allocation tests).
    size_t CapacityFloats() const { return arena.CapacityFloats(); }
  };

  Mlp() = default;

  // dims = {input, hidden..., output}; at least one layer (2 entries).
  void Init(const std::vector<int>& dims, Rng& rng);

  int in_dim() const { return dims_.front(); }
  int out_dim() const { return dims_.back(); }

  // Runs the network. In train mode, applies dropout with probability
  // `dropout` to hidden activations using `rng` (both may be omitted in
  // eval mode). Returns a pointer to the output inside `ws`.
  const float* Forward(const float* x, Workspace* ws, bool train = false,
                       float dropout = 0.0f, Rng* rng = nullptr) const;

  // Batched Forward over x [rows x in_dim]; returns the output matrix
  // [rows x out_dim] inside `ws`. Row r equals Forward on row r of x, bit
  // for bit, for every batch size. Dropout masks are drawn serially in row-
  // major order on the calling thread, so results are also independent of
  // `pool`, which only fans out the GEMMs.
  const float* ForwardBatch(const float* x, int rows, Workspace* ws,
                            bool train = false, float dropout = 0.0f,
                            Rng* rng = nullptr,
                            ThreadPool* pool = nullptr) const;

  // Accumulates parameter gradients given dL/d(output); `ws` must hold the
  // matching training Forward (`train` true), and is checked: Backward
  // differentiates the fp32 weights, which an eval forward does not read.
  // If dx != nullptr, adds dL/d(input).
  void Backward(const float* dout, Workspace& ws, float* dx);

  // Batched Backward: dout is [rows x out_dim] for the rows of the matching
  // ForwardBatch; dx (optional) is [rows x in_dim]. Gradient bytes are
  // identical for any pool width, including none.
  void BackwardBatch(const float* dout, Workspace& ws, float* dx,
                     ThreadPool* pool = nullptr);

  void ZeroGrad();
  void Step(const AdamConfig& config, double grad_divisor);
  size_t MemoryBytes() const;
  void Save(std::ostream& out) const;
  // Fails, leaving this network untouched, unless every layer loads and
  // maps dims[l] -> dims[l + 1] as the stream's dims say.
  bool Load(std::istream& in);

 private:
  std::vector<int> dims_;
  std::vector<Linear> layers_;
};

}  // namespace stage::nn

#endif  // STAGE_NN_MLP_H_
