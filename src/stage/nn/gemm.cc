#include "stage/nn/gemm.h"

#include <algorithm>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "stage/common/macros.h"
#include "stage/nn/gemm_kernels.h"

namespace stage::nn {

namespace {

// Arena chunks are at least this large so tiny allocations (per-layer mask
// buffers, single-row activations) coalesce instead of fragmenting.
constexpr size_t kMinChunkFloats = 4096;

// Rows processed per block: the fan-out unit for pool parallelism. The
// value never affects results (see gemm.h).
constexpr int kRowBlock = 64;

// The forward kernels. Each computes one row block of y = x * W^T + bias
// over every panel, for up to kRowBlock rows. Every output element is the
// scalar chain
//   acc = bias[o]; for k ascending: acc = acc + x[k] * W[o][k]
// with the product rounded before the add, where W[o][k] is the panel's
// weight widened to float (exact for bf16), so all kernels match the naive
// loop on the same weights bit for bit. Padded columns are computed and
// discarded. Each kernel is a template over the panel element type T,
// float or Bf16.
template <typename T>
using BlockKernel = void (*)(int rows, int out_dim, int in_dim,
                             const float* x, const T* panels,
                             const float* bias, float* y);

// The portable and AVX2 leaves write columns [0, cols) of one panel's
// slice of y rows [0, rows), from that panel and `bias16` (the panel's
// kPanelWidth bias values, zero-padded), splitting the rows into groups
// that share every panel-row load.
template <typename T>
using PanelKernel = void (*)(int rows, int in_dim, const float* x,
                             const T* panel, const float* bias16, int cols,
                             float* y, int out_dim);

// Runs a per-panel leaf panel-outer over a row block: the block's row
// groups all pass over one panel (L1-resident after the first group)
// before the next panel is touched.
template <typename T, PanelKernel<T> kLeaf>
void PanelOuterBlock(int rows, int out_dim, int in_dim, const float* x,
                     const T* panels, const float* bias, float* y) {
  const int num_panels = (out_dim + kPanelWidth - 1) / kPanelWidth;
  const size_t panel_size = static_cast<size_t>(in_dim) * kPanelWidth;
  for (int p = 0; p < num_panels; ++p) {
    const int o0 = p * kPanelWidth;
    const int cols = std::min(kPanelWidth, out_dim - o0);
    float bias16[kPanelWidth] = {};
    if (bias != nullptr) std::copy(bias + o0, bias + o0 + cols, bias16);
    kLeaf(rows, in_dim, x, panels + p * panel_size, bias16, cols, y + o0,
          out_dim);
  }
}

// A panel weight as the float it stands for.
inline float Widen(float w) { return w; }
inline float Widen(Bf16 w) { return Bf16ToFloat(w); }

// Portable kernel: one row at a time, its kPanelWidth accumulators in a
// local array the compiler vectorizes with the baseline ISA.
template <typename T>
void PanelRowsPortable(int rows, int in_dim, const float* x, const T* panel,
                       const float* bias16, int cols, float* y,
                       int out_dim) {
  for (int r = 0; r < rows; ++r) {
    const float* xr = x + static_cast<size_t>(r) * in_dim;
    float acc[kPanelWidth];
    for (int j = 0; j < kPanelWidth; ++j) acc[j] = bias16[j];
    const T* wk = panel;
    for (int k = 0; k < in_dim; ++k, wk += kPanelWidth) {
      const float xk = xr[k];
      for (int j = 0; j < kPanelWidth; ++j) acc[j] += xk * Widen(wk[j]);
    }
    std::copy(acc, acc + cols, y + static_cast<size_t>(r) * out_dim);
  }
}

#if defined(__x86_64__)
// The SIMD kernels are compiled for their ISA with a target attribute and
// run only where the CPU reports it. A row group holds R rows' accumulators
// in registers and loads each panel row once for all R; the R chains per
// lane are independent, which also hides the add latency. The row loops
// carry `#pragma GCC unroll`: without it GCC -O2 keeps the accumulator
// arrays on the stack, and the spills cost the group its advantage.
//
// The avx512f target set makes FMA instructions available to the compiler
// (avx2 alone does not), so the separate multiply and add intrinsics below
// stay separate only because stage_nn is built with -ffp-contract=off.

// Eight panel weights from `w` as floats: a plain load for fp32; for bf16
// a zero-extending load of eight 16-bit weights, each shifted into the
// upper half of its lane.
__attribute__((target("avx2"))) inline __m256 LoadWeights8(const float* w) {
  return _mm256_loadu_ps(w);
}
__attribute__((target("avx2"))) inline __m256 LoadWeights8(const Bf16* w) {
  const __m256i wide = _mm256_cvtepu16_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(w)));
  return _mm256_castsi256_ps(_mm256_slli_epi32(wide, 16));
}

// AVX2: R (<= 4) rows x 16 columns in 2R YMM accumulators.
template <typename T, int R>
__attribute__((target("avx2"))) void RowGroupAvx2(int in_dim, const float* x,
                                                  const T* panel,
                                                  const float* bias16,
                                                  int cols, float* y,
                                                  int out_dim) {
  const __m256 b0 = _mm256_loadu_ps(bias16);
  const __m256 b1 = _mm256_loadu_ps(bias16 + 8);
  __m256 lo[R];
  __m256 hi[R];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    lo[r] = b0;
    hi[r] = b1;
  }
  const T* wk = panel;
  for (int k = 0; k < in_dim; ++k, wk += kPanelWidth) {
    const __m256 w0 = LoadWeights8(wk);
    const __m256 w1 = LoadWeights8(wk + 8);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m256 f =
          _mm256_broadcast_ss(x + static_cast<size_t>(r) * in_dim + k);
      lo[r] = _mm256_add_ps(lo[r], _mm256_mul_ps(f, w0));
      hi[r] = _mm256_add_ps(hi[r], _mm256_mul_ps(f, w1));
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    float* yr = y + static_cast<size_t>(r) * out_dim;
    if (cols == kPanelWidth) {
      _mm256_storeu_ps(yr, lo[r]);
      _mm256_storeu_ps(yr + 8, hi[r]);
    } else {
      alignas(32) float tail[kPanelWidth];
      _mm256_store_ps(tail, lo[r]);
      _mm256_store_ps(tail + 8, hi[r]);
      std::copy(tail, tail + cols, yr);
    }
  }
}

template <typename T>
__attribute__((target("avx2"))) void PanelRowsAvx2(int rows, int in_dim,
                                                   const float* x,
                                                   const T* panel,
                                                   const float* bias16,
                                                   int cols, float* y,
                                                   int out_dim) {
  static constexpr decltype(&RowGroupAvx2<T, 1>) kGroups[] = {
      nullptr, &RowGroupAvx2<T, 1>, &RowGroupAvx2<T, 2>, &RowGroupAvx2<T, 3>,
      &RowGroupAvx2<T, 4>};
  for (int r = 0; r < rows; r += 4) {
    kGroups[std::min(4, rows - r)](
        in_dim, x + static_cast<size_t>(r) * in_dim, panel, bias16, cols,
        y + static_cast<size_t>(r) * out_dim, out_dim);
  }
}

// Sixteen panel weights (one panel row) from `w` as floats, as
// LoadWeights8 does. The widening uses the zero-masked forms with an
// all-ones mask: they emit the same vpmovzxwd and vpslld as the unmasked
// intrinsics, which GCC 12 reports as maybe-uninitialized inside its own
// header.
__attribute__((target("avx512f"))) inline __m512 LoadWeights16(
    const float* w) {
  return _mm512_loadu_ps(w);
}
__attribute__((target("avx512f"))) inline __m512 LoadWeights16(
    const Bf16* w) {
  const __m512i wide = _mm512_maskz_cvtepu16_epi32(
      0xFFFF, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w)));
  return _mm512_castsi512_ps(_mm512_maskz_slli_epi32(0xFFFF, wide, 16));
}

// AVX-512F: an R-row x P-panel register tile, R * P ZMM accumulators. Each
// k step loads P panel rows and broadcasts R inputs, and all R * P chains
// are independent. The bias comes straight from `bias` (zeros when null);
// `last_mask` covers the tile's last panel, masking its load of the bias
// and its store, so a tile ending at the GEMM's padded tail panel neither
// reads bias past out_dim nor writes past it.
template <typename T, int R, int P>
__attribute__((target("avx512f"))) void TileAvx512(
    int in_dim, const float* x, const T* panel, size_t panel_size,
    const float* bias, __mmask16 last_mask, float* y, int out_dim) {
  __m512 acc[R][P];
#pragma GCC unroll 8
  for (int j = 0; j < P; ++j) {
    const __mmask16 mask = j == P - 1 ? last_mask : 0xFFFF;
    const __m512 b = bias != nullptr
                         ? _mm512_maskz_loadu_ps(mask, bias + j * kPanelWidth)
                         : _mm512_setzero_ps();
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) acc[r][j] = b;
  }
  const T* wk = panel;
  for (int k = 0; k < in_dim; ++k, wk += kPanelWidth) {
    __m512 w[P];
#pragma GCC unroll 8
    for (int j = 0; j < P; ++j) w[j] = LoadWeights16(wk + j * panel_size);
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const __m512 f =
          _mm512_set1_ps(x[static_cast<size_t>(r) * in_dim + k]);
#pragma GCC unroll 8
      for (int j = 0; j < P; ++j) {
        acc[r][j] = _mm512_add_ps(acc[r][j], _mm512_mul_ps(f, w[j]));
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    float* yr = y + static_cast<size_t>(r) * out_dim;
#pragma GCC unroll 8
    for (int j = 0; j < P; ++j) {
      if (j == P - 1) {
        _mm512_mask_storeu_ps(yr + j * kPanelWidth, last_mask, acc[r][j]);
      } else {
        _mm512_storeu_ps(yr + j * kPanelWidth, acc[r][j]);
      }
    }
  }
}

// Panels per tile for an R-row tile (index R = 1..8): enough that the tile
// keeps at least 8 independent accumulator chains.
constexpr int kTilePanels[] = {0, 8, 4, 3, 2, 2, 2, 2, 1};

template <typename T>
using TileFn = decltype(&TileAvx512<T, 1, 1>);

// kTiles<T>[R][P] is the R-row x P-panel tile for P = 1..kTilePanels[R].
template <typename T>
constexpr TileFn<T> kTiles[9][9] = {
    {},
    {nullptr, &TileAvx512<T, 1, 1>, &TileAvx512<T, 1, 2>,
     &TileAvx512<T, 1, 3>, &TileAvx512<T, 1, 4>, &TileAvx512<T, 1, 5>,
     &TileAvx512<T, 1, 6>, &TileAvx512<T, 1, 7>, &TileAvx512<T, 1, 8>},
    {nullptr, &TileAvx512<T, 2, 1>, &TileAvx512<T, 2, 2>,
     &TileAvx512<T, 2, 3>, &TileAvx512<T, 2, 4>},
    {nullptr, &TileAvx512<T, 3, 1>, &TileAvx512<T, 3, 2>,
     &TileAvx512<T, 3, 3>},
    {nullptr, &TileAvx512<T, 4, 1>, &TileAvx512<T, 4, 2>},
    {nullptr, &TileAvx512<T, 5, 1>, &TileAvx512<T, 5, 2>},
    {nullptr, &TileAvx512<T, 6, 1>, &TileAvx512<T, 6, 2>},
    {nullptr, &TileAvx512<T, 7, 1>, &TileAvx512<T, 7, 2>},
    {nullptr, &TileAvx512<T, 8, 1>},
};

// AVX-512F row block: full 8-row groups run 8 x 1 tiles panel-outer, so
// each panel is read from memory once and then from L1 by every group. The
// rows % 8 tail, which is every row of a block under 8 rows, runs one
// R x kTilePanels[R] tile per panel group, across the panels the full
// groups have just read.
template <typename T>
__attribute__((target("avx512f"))) void TiledBlockAvx512(
    int rows, int out_dim, int in_dim, const float* x, const T* panels,
    const float* bias, float* y) {
  const int num_panels = (out_dim + kPanelWidth - 1) / kPanelWidth;
  const size_t panel_size = static_cast<size_t>(in_dim) * kPanelWidth;
  const __mmask16 last_panel_mask = static_cast<__mmask16>(
      (1u << (out_dim - (num_panels - 1) * kPanelWidth)) - 1u);
  const int tail = rows % 8;
  const int full_rows = rows - tail;
  const int group = tail > 0 ? kTilePanels[tail] : 1;
  for (int p0 = 0; p0 < num_panels; p0 += group) {
    const int np = std::min(group, num_panels - p0);
    for (int p = p0; p < p0 + np; ++p) {
      const __mmask16 mask = p == num_panels - 1 ? last_panel_mask : 0xFFFF;
      for (int r = 0; r < full_rows; r += 8) {
        TileAvx512<T, 8, 1>(in_dim, x + static_cast<size_t>(r) * in_dim,
                            panels + p * panel_size, panel_size,
                            bias != nullptr ? bias + p * kPanelWidth
                                            : nullptr,
                            mask,
                            y + static_cast<size_t>(r) * out_dim +
                                p * kPanelWidth,
                            out_dim);
      }
    }
    if (tail > 0) {
      kTiles<T>[tail][np](
          in_dim, x + static_cast<size_t>(full_rows) * in_dim,
          panels + p0 * panel_size, panel_size,
          bias != nullptr ? bias + p0 * kPanelWidth : nullptr,
          p0 + np == num_panels ? last_panel_mask : 0xFFFF,
          y + static_cast<size_t>(full_rows) * out_dim + p0 * kPanelWidth,
          out_dim);
    }
  }
}
#endif  // defined(__x86_64__)

template <typename T>
BlockKernel<T> KernelFor(internal::GemmKernel kernel) {
  switch (kernel) {
#if defined(__x86_64__)
    case internal::GemmKernel::kAvx512:
      return &TiledBlockAvx512<T>;
    case internal::GemmKernel::kAvx2:
      return &PanelOuterBlock<T, &PanelRowsAvx2<T>>;
#endif
    default:
      return &PanelOuterBlock<T, &PanelRowsPortable<T>>;
  }
}

// One input-gradient row block: dx rows [row0, ...) += dy * W. For a fixed
// o the update is a saxpy of the contiguous weight row into the contiguous
// dx row — SIMD across in_dim — and o ascends in the outer loop, so each
// dx element accumulates its o-terms in the naive order.
void GradInputBlock(int block_rows, int out_dim, int in_dim, const float* dy,
                    const float* w, float* dx) {
  for (int o = 0; o < out_dim; ++o) {
    const float* wo = w + static_cast<size_t>(o) * in_dim;
    for (int r = 0; r < block_rows; ++r) {
      const float g = dy[static_cast<size_t>(r) * out_dim + o];
      if (g == 0.0f) continue;  // ReLU/dropout zeros are common; skip like
                                // the naive backward does.
      float* dxr = dx + static_cast<size_t>(r) * in_dim;
      for (int i = 0; i < in_dim; ++i) dxr[i] += g * wo[i];
    }
  }
}

// Parameter gradients for output slots [o0, o1): each dw row and db entry
// is owned entirely by this call, accumulating batch rows in ascending
// order with the naive g == 0 skip. The inner saxpy (contiguous x row into
// contiguous dw row) is the SIMD axis.
void GradParamsRange(int o0, int o1, int rows, int out_dim, int in_dim,
                     const float* x, const float* dy, float* dw, float* db) {
  for (int o = o0; o < o1; ++o) {
    float* dwo = dw + static_cast<size_t>(o) * in_dim;
    for (int r = 0; r < rows; ++r) {
      const float g = dy[static_cast<size_t>(r) * out_dim + o];
      if (g == 0.0f) continue;
      db[o] += g;
      const float* xr = x + static_cast<size_t>(r) * in_dim;
      for (int i = 0; i < in_dim; ++i) dwo[i] += g * xr[i];
    }
  }
}

// Runs `fn(block)` for every row block, fanning out on the pool when it is
// worth it. Blocks touch disjoint output rows, so scheduling never affects
// results.
template <typename Fn>
void ForEachRowBlock(int rows, ThreadPool* pool, Fn&& fn) {
  const int blocks = (rows + kRowBlock - 1) / kRowBlock;
  if (pool != nullptr && blocks > 1) {
    pool->ParallelFor(static_cast<size_t>(blocks),
                      [&fn](size_t block) { fn(static_cast<int>(block)); });
  } else {
    for (int block = 0; block < blocks; ++block) fn(block);
  }
}

// GemmBias on a given kernel: row blocks fan out on the pool.
template <typename T>
void GemmBiasBlocks(BlockKernel<T> kernel, int rows, int out_dim, int in_dim,
                    const float* x, const T* panels, const float* bias,
                    float* y, ThreadPool* pool) {
  STAGE_DCHECK(rows >= 0 && out_dim > 0 && in_dim > 0);
  ForEachRowBlock(rows, pool, [&](int block) {
    const int row0 = block * kRowBlock;
    kernel(std::min(kRowBlock, rows - row0), out_dim, in_dim,
           x + static_cast<size_t>(row0) * in_dim, panels, bias,
           y + static_cast<size_t>(row0) * out_dim);
  });
}

// GemmBias on the kernel this machine selects, fixed on first use.
template <typename T>
void GemmBiasSelected(int rows, int out_dim, int in_dim, const float* x,
                      const T* panels, const float* bias, float* y,
                      ThreadPool* pool) {
  static const BlockKernel<T> kernel =
      KernelFor<T>(internal::SelectedGemmKernel());
  GemmBiasBlocks(kernel, rows, out_dim, in_dim, x, panels, bias, y, pool);
}

}  // namespace

float* Arena::Alloc(size_t n) {
  if (n == 0) return nullptr;
  while (chunk_index_ < chunks_.size() &&
         chunks_[chunk_index_].size() - used_ < n) {
    ++chunk_index_;
    used_ = 0;
  }
  if (chunk_index_ == chunks_.size()) {
    chunks_.emplace_back(std::max(n, kMinChunkFloats));
    used_ = 0;
  }
  float* out = chunks_[chunk_index_].data() + used_;
  used_ += n;
  return out;
}

float* Arena::AllocZeroed(size_t n) {
  float* out = Alloc(n);
  std::fill(out, out + n, 0.0f);
  return out;
}

void Arena::Reset() {
  chunk_index_ = 0;
  used_ = 0;
}

size_t Arena::CapacityFloats() const {
  size_t total = 0;
  for (const std::vector<float>& chunk : chunks_) total += chunk.size();
  return total;
}

size_t PackedPanelSize(int out_dim, int in_dim) {
  const size_t panels = (static_cast<size_t>(out_dim) + kPanelWidth - 1) /
                        kPanelWidth;
  return panels * static_cast<size_t>(in_dim) * kPanelWidth;
}

void PackPanels(int out_dim, int in_dim, const float* w, float* panels,
                Bf16* bf16_panels) {
  const int num_panels = (out_dim + kPanelWidth - 1) / kPanelWidth;
  const size_t panel_size = static_cast<size_t>(in_dim) * kPanelWidth;
  for (int p = 0; p < num_panels; ++p) {
    float* panel = panels + p * panel_size;
    // Column j of the panel is row o of W, read front to back.
    for (int j = 0; j < kPanelWidth; ++j) {
      const int o = p * kPanelWidth + j;
      for (int k = 0; k < in_dim; ++k) {
        panel[static_cast<size_t>(k) * kPanelWidth + j] =
            o < out_dim ? w[static_cast<size_t>(o) * in_dim + k] : 0.0f;
      }
    }
    // The bf16 form of the panel just written, while it is in L1.
    Bf16* bf16_panel = bf16_panels + p * panel_size;
    for (size_t i = 0; i < panel_size; ++i) {
      bf16_panel[i] = RoundToBf16(panel[i]);
    }
  }
}

namespace internal {

GemmKernel SelectedGemmKernel() {
  static const GemmKernel selected = [] {
    if (GemmKernelSupported(GemmKernel::kAvx512)) return GemmKernel::kAvx512;
    if (GemmKernelSupported(GemmKernel::kAvx2)) return GemmKernel::kAvx2;
    return GemmKernel::kPortable;
  }();
  return selected;
}

bool GemmKernelSupported(GemmKernel kernel) {
#if defined(__x86_64__)
  __builtin_cpu_init();  // Safe before static constructors have run.
#endif
  switch (kernel) {
    case GemmKernel::kPortable:
      return true;
#if defined(__x86_64__)
    case GemmKernel::kAvx2:
      return __builtin_cpu_supports("avx2");
    case GemmKernel::kAvx512:
      return __builtin_cpu_supports("avx512f");
#endif
    default:
      return false;
  }
}

void GemmBiasWithKernel(GemmKernel kernel, int rows, int out_dim, int in_dim,
                        const float* x, const float* panels,
                        const float* bias, float* y, ThreadPool* pool) {
  STAGE_CHECK(GemmKernelSupported(kernel));
  GemmBiasBlocks(KernelFor<float>(kernel), rows, out_dim, in_dim, x, panels,
                 bias, y, pool);
}

void GemmBiasWithKernel(GemmKernel kernel, int rows, int out_dim, int in_dim,
                        const float* x, const Bf16* panels,
                        const float* bias, float* y, ThreadPool* pool) {
  STAGE_CHECK(GemmKernelSupported(kernel));
  GemmBiasBlocks(KernelFor<Bf16>(kernel), rows, out_dim, in_dim, x, panels,
                 bias, y, pool);
}

}  // namespace internal

void GemmBias(int rows, int out_dim, int in_dim, const float* x,
              const float* panels, const float* bias, float* y,
              ThreadPool* pool) {
  GemmBiasSelected(rows, out_dim, in_dim, x, panels, bias, y, pool);
}

void GemmBias(int rows, int out_dim, int in_dim, const float* x,
              const Bf16* panels, const float* bias, float* y,
              ThreadPool* pool) {
  GemmBiasSelected(rows, out_dim, in_dim, x, panels, bias, y, pool);
}

void GemmGradInput(int rows, int out_dim, int in_dim, const float* dy,
                   const float* w, float* dx, ThreadPool* pool) {
  STAGE_DCHECK(rows >= 0 && out_dim > 0 && in_dim > 0);
  ForEachRowBlock(rows, pool, [&](int block) {
    const int row0 = block * kRowBlock;
    const int block_rows = std::min(kRowBlock, rows - row0);
    GradInputBlock(block_rows, out_dim, in_dim,
                   dy + static_cast<size_t>(row0) * out_dim, w,
                   dx + static_cast<size_t>(row0) * in_dim);
  });
}

void GemmGradParams(int rows, int out_dim, int in_dim, const float* x,
                    const float* dy, float* dw, float* db, ThreadPool* pool) {
  STAGE_DCHECK(rows >= 0 && out_dim > 0 && in_dim > 0);
  // Fan out over output slots (disjoint dw rows / db entries). Layers here
  // are narrow (out_dim <= 64), so tasks take small slot groups — each one
  // still owns its dw rows outright, it just re-streams the shared x/dy.
  constexpr int kSlotBlock = 8;
  const int blocks = (out_dim + kSlotBlock - 1) / kSlotBlock;
  const auto run = [&](int block) {
    const int o0 = block * kSlotBlock;
    const int o1 = std::min(out_dim, o0 + kSlotBlock);
    GradParamsRange(o0, o1, rows, out_dim, in_dim, x, dy, dw, db);
  };
  if (pool != nullptr && blocks > 1) {
    pool->ParallelFor(static_cast<size_t>(blocks),
                      [&run](size_t block) { run(static_cast<int>(block)); });
  } else {
    for (int block = 0; block < blocks; ++block) run(block);
  }
}

}  // namespace stage::nn
