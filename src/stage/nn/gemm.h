#ifndef STAGE_NN_GEMM_H_
#define STAGE_NN_GEMM_H_

#include <bit>
#include <cstddef>
#include <cstdint>
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
// bit-for-bit identical to the naive loops no matter the batch size, the
// row-block size, or how many pool threads execute. The kernels get their
// speed from vectorizing ACROSS independent output elements (rows/columns),
// never from reassociating a single element's reduction. That also makes
// parallel training deterministic for free: each output element is
// computed wholly by one claimer in a fixed order, so pool widths
// 1/2/8/serial produce identical bytes.
//
// The forward GEMM reads its weights in one of two packed forms (below):
// fp32, the training forward's, or bf16, the eval forward's. A bf16 weight
// is widened to fp32 exactly before the same multiply and add, so the
// eval forward equals the naive loop run on the rounded weights
// (Linear::Forward), and the training forward the naive loop on the fp32
// weights themselves.

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

// bfloat16: the upper 16 bits of an IEEE binary32 (sign, the full 8-bit
// exponent, 7 mantissa bits). The eval panels hold weights in this form,
// half the bytes of fp32, and the kernels widen each one exactly.
using Bf16 = uint16_t;

// Rounds `f` to the nearest bf16, ties to even. NaN stays NaN (quiet, its
// sign kept). A finite |f| >= 0x1.FFp127 (bits 0x7F7F8000, FLT_MAX among
// them) rounds to infinity; 0x7F7F7FFF is the largest value that stays
// finite.
inline Bf16 RoundToBf16(float f) {
  const uint32_t bits = std::bit_cast<uint32_t>(f);
  const uint32_t nearest_even = (bits + 0x7FFFu + ((bits >> 16) & 1u)) >> 16;
  const uint32_t quiet_nan = (bits >> 16) | 0x0040u;
  const bool nan = (bits & 0x7FFFFFFFu) > 0x7F800000u;
  return static_cast<Bf16>(nan ? quiet_nan : nearest_even);
}

// Widens a bf16 to the float with the same sign, exponent and leading
// mantissa bits. Exact.
inline float Bf16ToFloat(Bf16 b) {
  return std::bit_cast<float>(static_cast<uint32_t>(b) << 16);
}

// Forward weights in packed panel layout: W [out_dim x in_dim] re-laid as
// ceil(out_dim / kPanelWidth) contiguous [in_dim x kPanelWidth] panels, so
// panel p holds output columns [16p, 16p + 16) and row k of a panel is the
// 16 weights that multiply x[k]: panels[(p * in_dim + k) * 16 + j] =
// W[16p + j][k]. The last panel's columns past out_dim are zero. The same
// layout holds fp32 weights (one panel row is one 64-byte cache line) or
// their bf16 roundings (half a line); PanelVector aligns the storage to a
// line, so no panel row load straddles two, and a panel is read front to
// back. Linear packs both forms in one pass at every mutation point
// (Init/Load/Step); they are a derived cache, never serialized.
inline constexpr int kPanelWidth = 16;

// Elements (floats, or bf16s) in the packed panels of an
// [out_dim x in_dim] weight matrix.
size_t PackedPanelSize(int out_dim, int in_dim);

// Writes row-major W [out_dim x in_dim] into both panel forms, each
// PackedPanelSize(out_dim, in_dim) elements, zero padding included:
// `panels` as fp32 and `bf16_panels` as RoundToBf16 of each weight.
void PackPanels(int out_dim, int in_dim, const float* w, float* panels,
                Bf16* bf16_panels);

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

template <typename T>
using PanelVector = std::vector<T, CacheLineAllocator<T>>;

// y [rows x out_dim] = x [rows x in_dim] * W^T + bias, with W given as
// packed panels (above) in either form and bias [out_dim] (may be null for
// no bias). Each row of y equals the naive loop on the matching row of x,
// bit for bit, with each weight as the panels hold it: widened from bf16,
// or fp32 as is.
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
// on any fused multiply-add in the library). A bf16 panel row is widened
// in registers (zero-extend each 16-bit weight, shift it into the upper
// half) before the multiply, so it streams half the bytes of an fp32 row
// for the same arithmetic.
//
// The leaf kernel is chosen once per process from the CPU's features:
// AVX-512F (register tiles, below), else AVX2 (up to 4 rows, two YMM
// accumulators per row), else a portable per-row loop. No option selects
// it, and all three produce the same bytes (nn_test checks each, on both
// panel forms, against its naive reference over a table of shapes). Each
// kernel is one template over the panel element type. Row blocks fan out
// on `pool` when provided; blocks own disjoint output rows, so the pool
// never changes the bytes.
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
void GemmBias(int rows, int out_dim, int in_dim, const float* x,
              const Bf16* panels, const float* bias, float* y,
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
