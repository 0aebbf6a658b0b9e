#ifndef STAGE_NN_GEMM_KERNELS_H_
#define STAGE_NN_GEMM_KERNELS_H_

// Test seam for nn::GemmBias's leaf kernels. Production code never includes
// this header: GemmBias picks its kernel once from the CPU's features, and
// nothing a user sets can change that choice. Tests include it to run every
// kernel this machine supports, not only the one it selects, on both panel
// forms against their naive references.

#include "stage/common/thread_pool.h"
#include "stage/nn/gemm.h"

namespace stage::nn::internal {

enum class GemmKernel {
  kPortable,  // Per-row loop in baseline ISA code; runs everywhere.
  kAvx2,      // Row groups of up to 4 rows in YMM registers.
  kAvx512,    // R-row x P-panel register tiles in ZMM registers.
};

// The kernel GemmBias runs on this machine.
GemmKernel SelectedGemmKernel();

// Whether this build and CPU can run `kernel`.
bool GemmKernelSupported(GemmKernel kernel);

// GemmBias (gemm.h) forced onto `kernel`, which must be supported, over
// fp32 or bf16 panels.
void GemmBiasWithKernel(GemmKernel kernel, int rows, int out_dim, int in_dim,
                        const float* x, const float* panels,
                        const float* bias, float* y,
                        ThreadPool* pool = nullptr);
void GemmBiasWithKernel(GemmKernel kernel, int rows, int out_dim, int in_dim,
                        const float* x, const Bf16* panels,
                        const float* bias, float* y,
                        ThreadPool* pool = nullptr);

}  // namespace stage::nn::internal

#endif  // STAGE_NN_GEMM_KERNELS_H_
