#ifndef STAGE_NN_GEMM_H_
#define STAGE_NN_GEMM_H_

#include <cstddef>
#include <new>
#include <vector>

#include "stage/common/thread_pool.h"

namespace stage::nn {

// Dense kernels for the neural hot paths (the batched counterparts of
// Linear::Forward/Backward), plus the scratch arena every nn workspace is
// built on.
//
// Bit-exactness contract: for every output element, terms are accumulated
// in exactly the order the naive per-row loops use — the accumulator starts
// at the bias and products are added in ascending k, each product rounded
// to float before its add (never a fused multiply-add) — so results are
// bit-for-bit identical to Linear::Forward/Backward no matter the batch
// size, the row-block size, or how many pool threads execute. The kernels
// get their speed from vectorizing ACROSS independent output elements
// (rows/columns), never from reassociating a single element's reduction.
// That also makes parallel training deterministic for free: each output
// element is computed wholly by one claimer in a fixed order, so pool
// widths 1/2/8/serial produce identical bytes.

// A reusable bump allocator for forward/backward scratch. Allocations are
// served from a chunk list that only grows until the call pattern has been
// seen once; after that warm-up, Reset() + the same Alloc sequence touches
// the allocator's existing chunks and performs zero heap allocations.
// Chunks never move, so pointers handed out stay valid until Reset().
class Arena {
 public:
  // Returns an uninitialized buffer of `n` floats (nullptr when n == 0),
  // valid until the next Reset().
  float* Alloc(size_t n);
  // Returns a zero-filled buffer of `n` floats.
  float* AllocZeroed(size_t n);
  // Rewinds to empty, keeping every chunk's capacity.
  void Reset();

  size_t CapacityFloats() const;

 private:
  std::vector<std::vector<float>> chunks_;
  size_t chunk_index_ = 0;
  size_t used_ = 0;  // Floats consumed in chunks_[chunk_index_].
};

// Forward weights in packed panel layout: W [out_dim x in_dim] re-laid as
// ceil(out_dim / kPanelWidth) contiguous [in_dim x kPanelWidth] panels, so
// panel p holds output columns [16p, 16p + 16) and row k of a panel is the
// 16 weights that multiply x[k]: panels[(p * in_dim + k) * 16 + j] =
// W[16p + j][k]. The last panel's columns past out_dim are zero. One panel
// row is one 64-byte cache line (PanelVector aligns the storage to it), and
// a panel is in_dim cache lines read front to back. Linear rebuilds its
// panels at every mutation point (Init/Load/Step); they are a derived
// cache, never serialized.
inline constexpr int kPanelWidth = 16;

// Floats in the packed panels of an [out_dim x in_dim] weight matrix.
size_t PackedPanelFloats(int out_dim, int in_dim);

// Writes row-major W [out_dim x in_dim] into `panels`
// (PackedPanelFloats(out_dim, in_dim) floats), zero padding included.
void PackPanels(int out_dim, int in_dim, const float* w, float* panels);

// Allocator for PanelVector: cache-line aligned storage, so no panel row
// load straddles two lines.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};

  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>&) noexcept {}

  T* allocate(size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, size_t) noexcept { ::operator delete(p, kAlign); }

  template <typename U>
  bool operator==(const CacheLineAllocator<U>&) const noexcept {
    return true;
  }
};

using PanelVector = std::vector<float, CacheLineAllocator<float>>;

// y [rows x out_dim] = x [rows x in_dim] * W^T + bias, with W given as
// packed panels (above) and bias [out_dim] (may be null for no bias). Each
// row of y equals Linear::Forward on the matching row of x, bit for bit.
//
// Loop order: panel-outer, row-group-inner. Within a row block (64 rows,
// the pool fan-out unit) each panel is read from memory once and then
// reused from L1 by every row group, so a call reads the weights once per
// row block, and a call of up to 64 rows (one plan's nodes, or a small
// batch of plans) reads them once. A row group keeps each row's
// accumulators in SIMD registers, broadcasts x[k] and adds x[k] * panel
// row k, so each output element still starts at the bias and sums its
// products in ascending k, with a separate multiply and add per term
// (stage_nn is compiled with -ffp-contract=off, and tools/check.sh fails
// on any fused multiply-add in the library).
//
// The leaf kernel is chosen once per process from the CPU's features:
// AVX-512F (register tiles, below), else AVX2 (up to 4 rows, two YMM
// accumulators per row), else a portable per-row loop. No option selects
// it, and all three produce the same bytes (nn_test checks each against
// Linear::Forward over a table of shapes). Row blocks fan out on `pool`
// when provided; blocks own disjoint output rows, so the pool never
// changes the bytes.
//
// The AVX-512F kernel computes an R-row x P-panel register tile at a time:
// R * P ZMM accumulators, P panel-row loads and R broadcasts per k step,
// every chain independent. A block's full 8-row groups run 8 x 1 tiles
// panel-outer as above. Its rows % 8 tail, which is every row of a block
// under 8 rows (a pruned GCN layer often has 1-4), takes P = 8, 4, 3 or 2
// panels for R = 1, 2, 3 or 4..7, so the tile keeps at least 8 chains in
// flight instead of R; one chain per row would leave it bound by the add
// latency. A tile ending at the padded last panel masks its bias load and
// its store.
void GemmBias(int rows, int out_dim, int in_dim, const float* x,
              const float* panels, const float* bias, float* y,
              ThreadPool* pool = nullptr);

// dx [rows x in_dim] += dy [rows x out_dim] * W, the input-gradient half of
// Linear::Backward. Skips zero dy elements like the naive loop; per-element
// contributions are added in ascending o. Row blocks fan out on `pool`.
void GemmGradInput(int rows, int out_dim, int in_dim, const float* dy,
                   const float* w, float* dx, ThreadPool* pool = nullptr);

// dw [out_dim x in_dim] += dy^T * x and db [out_dim] += column sums of dy,
// the parameter-gradient half of Linear::Backward. Contributions are added
// in ascending row order per element; output rows (one per out_dim slot)
// fan out on `pool`, so every dw/db element is owned by exactly one lane.
void GemmGradParams(int rows, int out_dim, int in_dim, const float* x,
                    const float* dy, float* dw, float* db,
                    ThreadPool* pool = nullptr);

}  // namespace stage::nn

#endif  // STAGE_NN_GEMM_H_
