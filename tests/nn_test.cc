#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stage/common/rng.h"
#include "stage/common/serialize.h"
#include "stage/common/thread_pool.h"
#include "stage/nn/gemm.h"
#include "stage/nn/gemm_kernels.h"
#include "stage/nn/linear.h"
#include "stage/nn/mlp.h"
#include "stage/nn/param.h"
#include "stage/nn/tree_batch.h"
#include "stage/nn/tree_gcn.h"

namespace {

std::atomic<bool> g_count_allocations{false};
std::atomic<uint64_t> g_allocations{0};

}  // namespace

// Counting overrides (the array forms forward here), so the warm-path
// allocation tests below see every heap allocation in the process.
// GCC pairs the replaced scalar forms against the untouched array/aligned
// forms and warns; both sides here are plain malloc/free.
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

namespace stage::nn {
namespace {

testing::AssertionResult BitEqual(const float* a, const float* b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) {
      return testing::AssertionFailure()
             << "element " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return testing::AssertionSuccess();
}

void FillUniform(std::vector<float>* v, Rng& rng, double lo = -1.0,
                 double hi = 1.0) {
  for (float& f : *v) f = static_cast<float>(rng.NextUniform(lo, hi));
}

// ---- Naive references, parsed from the (stable) checkpoint streams ----
//
// The golden-equivalence tests below compare the batched GEMM execution
// against an independent reimplementation of the original per-element /
// per-node loops, with weights read back from Save(). If the kernels ever
// reassociate a reduction, these tests fail on the exact element. An eval
// forward multiplies by each weight's bf16 rounding, so the eval
// references round the weights they parse.

struct ParsedLinear {
  int in = 0;
  int out = 0;
  std::vector<float> w;  // Row-major [out x in].
  std::vector<float> b;  // [out].

  bool Parse(std::istream& s) {
    int32_t in32 = 0;
    int32_t out32 = 0;
    if (!ReadPod(s, &in32) || !ReadPod(s, &out32)) return false;
    in = in32;
    out = out32;
    return ReadVector(s, &w) && ReadVector(s, &b);
  }

  // Replaces each weight by its bf16 rounding, the weight an eval forward
  // multiplies by.
  void RoundWeightsToBf16() {
    for (float& v : w) v = Bf16ToFloat(RoundToBf16(v));
  }

  // The naive loop, fp32 throughout on the weights held.
  void Forward(const float* x, float* y) const {
    for (int o = 0; o < out; ++o) {
      const float* row = w.data() + static_cast<size_t>(o) * in;
      float acc = b[o];
      for (int i = 0; i < in; ++i) acc += row[i] * x[i];
      y[o] = acc;
    }
  }
};

struct ParsedTreeGcn {
  int input_dim = 0;
  int hidden_dim = 0;
  int num_layers = 0;
  float dropout = 0.0f;
  std::vector<ParsedLinear> self;
  std::vector<ParsedLinear> child;

  bool Parse(std::istream& s) {
    int32_t in32 = 0;
    int32_t hidden32 = 0;
    int32_t layers32 = 0;
    if (!ReadPod(s, &in32) || !ReadPod(s, &hidden32) ||
        !ReadPod(s, &layers32) || !ReadPod(s, &dropout)) {
      return false;
    }
    input_dim = in32;
    hidden_dim = hidden32;
    num_layers = layers32;
    self.resize(static_cast<size_t>(num_layers));
    child.resize(static_cast<size_t>(num_layers));
    for (ParsedLinear& layer : self) {
      if (!layer.Parse(s)) return false;
      layer.RoundWeightsToBf16();
    }
    for (ParsedLinear& layer : child) {
      if (!layer.Parse(s)) return false;
      layer.RoundWeightsToBf16();
    }
    return true;
  }

  // The naive per-node walk (eval mode, on the rounded weights): for every
  // layer, every node runs two matrix-vector products against its own
  // features and the mean of its children's. Returns the root (node 0)
  // representation.
  std::vector<float> Forward(
      const float* feats,
      const std::vector<std::vector<int32_t>>& children) const {
    const int n = static_cast<int>(children.size());
    std::vector<float> cur(feats, feats + static_cast<size_t>(n) * input_dim);
    std::vector<float> next;
    std::vector<float> agg;
    std::vector<float> z(static_cast<size_t>(hidden_dim));
    std::vector<float> c(static_cast<size_t>(hidden_dim));
    for (int l = 0; l < num_layers; ++l) {
      const int in_dim = l == 0 ? input_dim : hidden_dim;
      next.assign(static_cast<size_t>(n) * hidden_dim, 0.0f);
      agg.assign(static_cast<size_t>(in_dim), 0.0f);
      for (int node = 0; node < n; ++node) {
        std::fill(agg.begin(), agg.end(), 0.0f);
        if (!children[node].empty()) {
          for (int32_t ch : children[node]) {
            const float* cf = cur.data() + static_cast<size_t>(ch) * in_dim;
            for (int j = 0; j < in_dim; ++j) agg[j] += cf[j];
          }
          const float inv =
              1.0f / static_cast<float>(children[node].size());
          for (int j = 0; j < in_dim; ++j) agg[j] *= inv;
        }
        self[l].Forward(cur.data() + static_cast<size_t>(node) * in_dim,
                        z.data());
        child[l].Forward(agg.data(), c.data());
        float* out = next.data() + static_cast<size_t>(node) * hidden_dim;
        for (int j = 0; j < hidden_dim; ++j) {
          const float v = z[j] + c[j];
          out[j] = v > 0.0f ? v : 0.0f;  // ReLU.
        }
      }
      cur.swap(next);
    }
    return std::vector<float>(cur.begin(), cur.begin() + hidden_dim);
  }
};

// Random tree over n nodes rooted at 0; parents precede children, child
// lists stay in ascending (original) order.
std::vector<std::vector<int32_t>> RandomTree(int n, Rng& rng) {
  std::vector<std::vector<int32_t>> children(n);
  for (int i = 1; i < n; ++i) {
    int parent = static_cast<int>(rng.NextUniform(0.0, i));
    if (parent >= i) parent = i - 1;
    if (parent < 0) parent = 0;
    children[parent].push_back(i);
  }
  return children;
}

std::vector<std::vector<int32_t>> Chain(int n) {
  std::vector<std::vector<int32_t>> children(n);
  for (int i = 0; i + 1 < n; ++i) children[i] = {i + 1};
  return children;
}

std::vector<std::vector<int32_t>> Star(int fanout) {
  std::vector<std::vector<int32_t>> children(fanout + 1);
  for (int i = 1; i <= fanout; ++i) children[0].push_back(i);
  return children;
}

TEST(ParamTest, InitWithinScale) {
  Rng rng(1);
  Param param;
  param.Init(100, 0.5f, rng);
  for (size_t i = 0; i < param.size(); ++i) {
    EXPECT_LE(std::abs(param.data()[i]), 0.5f);
  }
}

TEST(ParamTest, AdamStepDescendsQuadratic) {
  // Minimize f(w) = (w - 3)^2 by feeding grad = 2(w - 3).
  Rng rng(2);
  Param param;
  param.Init(1, 0.1f, rng);
  AdamConfig config;
  config.learning_rate = 0.05f;
  for (int step = 0; step < 500; ++step) {
    param.ZeroGrad();
    param.grad()[0] = 2.0f * (param.data()[0] - 3.0f);
    param.Step(config, 1.0);
  }
  EXPECT_NEAR(param.data()[0], 3.0f, 0.05f);
}

// RoundToBf16 against hand-rounded bit patterns: input float bits, want
// bf16 bits.
TEST(Bf16Test, RoundsToNearestEvenOverEdgeTable) {
  const struct {
    uint32_t in;
    Bf16 want;
    const char* what;
  } cases[] = {
      {0x3F800000u, 0x3F80, "1.0 is exact"},
      {0x3F807FFFu, 0x3F80, "below the tie rounds down"},
      {0x3F808001u, 0x3F81, "above the tie rounds up"},
      {0x3F808000u, 0x3F80, "tie to the even neighbour below"},
      {0x3F818000u, 0x3F82, "tie to the even neighbour above"},
      {0xBF808000u, 0xBF80, "negative tie, even below"},
      {0xBF818000u, 0xBF82, "negative tie, even above"},
      {0xC0490FDBu, 0xC049, "-pi"},
      {0x00000000u, 0x0000, "+0"},
      {0x80000000u, 0x8000, "-0"},
      {0x00012345u, 0x0001, "subnormal rounds down"},
      {0x00018000u, 0x0002, "subnormal tie to even above"},
      {0x00008000u, 0x0000, "subnormal tie to even zero"},
      {0x807FFFFFu, 0x8080, "largest negative subnormal rounds to normal"},
      {0x7F7F7FFFu, 0x7F7F, "largest value that stays finite"},
      {0x7F7F8000u, 0x7F80, "smallest value that rounds to +inf"},
      {0x7F7FFFFFu, 0x7F80, "FLT_MAX rounds to +inf"},
      {0xFF7F8000u, 0xFF80, "negative overflow rounds to -inf"},
      {0x7F800000u, 0x7F80, "+inf"},
      {0xFF800000u, 0xFF80, "-inf"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(RoundToBf16(std::bit_cast<float>(c.in)), c.want)
        << c.what << " (0x" << std::hex << c.in << ")";
  }

  // NaN stays NaN with its sign, even a payload that sits only in the
  // bits rounding drops.
  for (const uint32_t nan : {0x7FC00000u, 0x7F800001u, 0xFF800001u,
                             0x7FFFFFFFu}) {
    const float widened = Bf16ToFloat(RoundToBf16(std::bit_cast<float>(nan)));
    EXPECT_TRUE(std::isnan(widened)) << std::hex << nan;
    EXPECT_EQ(std::signbit(widened), (nan >> 31) != 0) << std::hex << nan;
  }
}

// Widening is exact: every bf16 is the top half of the float it widens to,
// and rounding that float gives the bf16 back.
TEST(Bf16Test, WideningIsExactForEveryValue) {
  for (uint32_t bits = 0; bits <= 0xFFFFu; ++bits) {
    const Bf16 b = static_cast<Bf16>(bits);
    const float widened = Bf16ToFloat(b);
    ASSERT_EQ(std::bit_cast<uint32_t>(widened), bits << 16) << bits;
    if (!std::isnan(widened)) {
      ASSERT_EQ(RoundToBf16(widened), b) << bits;
    }
  }
}

TEST(LinearTest, ForwardMatchesManualComputation) {
  Rng rng(3);
  Linear layer;
  layer.Init(2, 1, rng);
  // Overwrite weights for determinism via a backward-free trick: run
  // forward on basis vectors to read the weights.
  const float e0[2] = {1.0f, 0.0f};
  const float e1[2] = {0.0f, 1.0f};
  const float zero[2] = {0.0f, 0.0f};
  float w0, w1, b;
  layer.Forward(zero, &b);
  layer.Forward(e0, &w0);
  layer.Forward(e1, &w1);
  const float x[2] = {2.0f, -3.0f};
  float y;
  layer.Forward(x, &y);
  EXPECT_NEAR(y, (w0 - b) * 2.0f + (w1 - b) * -3.0f + b, 1e-5);
}

TEST(LinearTest, ForwardBatchBitEqualsNaivePerRow) {
  Rng rng(21);
  Linear layer;
  layer.Init(19, 11, rng);
  // 147 rows: two full 64-row blocks plus a ragged tail.
  const int rows = 147;
  std::vector<float> x(static_cast<size_t>(rows) * 19);
  FillUniform(&x, rng, -2.0, 2.0);

  std::vector<float> naive(static_cast<size_t>(rows) * 11);
  for (int r = 0; r < rows; ++r) {
    layer.Forward(x.data() + static_cast<size_t>(r) * 19,
                  naive.data() + static_cast<size_t>(r) * 11);
  }
  std::vector<float> batched(naive.size(), -1.0f);
  layer.ForwardBatch(x.data(), rows, batched.data(), /*train=*/false);
  EXPECT_TRUE(BitEqual(naive.data(), batched.data(), naive.size()));

  // The pool only schedules row blocks; bytes must not change.
  ThreadPool pool(3);
  std::vector<float> pooled(naive.size(), -1.0f);
  layer.ForwardBatch(x.data(), rows, pooled.data(), /*train=*/false, &pool);
  EXPECT_TRUE(BitEqual(naive.data(), pooled.data(), naive.size()));
}

// Linear's stream format for the given dims, weights and bias.
std::string LinearStream(int in_dim, int out_dim, const std::vector<float>& w,
                         const std::vector<float>& b) {
  std::stringstream stream;
  WritePod<int32_t>(stream, in_dim);
  WritePod<int32_t>(stream, out_dim);
  WriteVector(stream, w);
  WriteVector(stream, b);
  return stream.str();
}

// A layer with the given weights and bias, loaded through Linear's own
// stream format (Init would leave the bias at zero).
Linear LoadedLinear(int in_dim, int out_dim, const std::vector<float>& w,
                    const std::vector<float>& b) {
  std::istringstream stream(LinearStream(in_dim, out_dim, w, b));
  Linear layer;
  EXPECT_TRUE(layer.Load(stream));
  return layer;
}

// Every leaf kernel GemmBias can dispatch to, reached through the test seam
// whether or not this machine selects it, on both panel forms: fp32 panels
// against the fp32 naive loop on the unrounded weights, bf16 panels against
// Linear::Forward (the naive loop on the rounded weights). The shapes cover
// widths with and without a full 16-column panel, ragged tails, and row
// counts on both sides of every row-group (4, 8) and row-block (64) edge.
// The AVX-512 kernel's R-row x P-panel tiles (P = 8, 4, 3 or 2 for a 1-,
// 2-, 3- or 4..7-row tail) end short wherever the panel count is not a
// multiple of P: the widths' panel counts (1, 2, 3, 4, 5, 6, 7, 9, 13, 16)
// leave every such remainder, with and without a padded last panel.
class GemmKernelTest : public testing::TestWithParam<internal::GemmKernel> {};

TEST_P(GemmKernelTest, BitEqualsLinearForwardOverShapeTable) {
  const internal::GemmKernel kernel = GetParam();
  if (!internal::GemmKernelSupported(kernel)) {
    GTEST_SKIP() << "this CPU lacks the kernel's instruction set";
  }
  const bool selected = kernel == internal::SelectedGemmKernel();
  constexpr int kMaxRows = 147;
  constexpr size_t kGuard = 32;  // Floats past y that must stay untouched.
  const float sentinel = -12345.0f;
  Rng rng(31);
  ThreadPool pool(3);
  for (const int out_dim :
       {1, 11, 16, 20, 48, 60, 80, 90, 112, 130, 200, 256}) {
    for (const int in_dim : {19, 99, 276}) {
      std::vector<float> w(static_cast<size_t>(out_dim) * in_dim);
      std::vector<float> b(static_cast<size_t>(out_dim));
      FillUniform(&w, rng);
      FillUniform(&b, rng);
      const std::vector<float> no_bias(b.size(), 0.0f);
      const Linear layer = LoadedLinear(in_dim, out_dim, w, b);
      const Linear unbiased = LoadedLinear(in_dim, out_dim, w, no_bias);
      const ParsedLinear fp32{in_dim, out_dim, w, b};
      const ParsedLinear fp32_unbiased{in_dim, out_dim, w, no_bias};
      PanelVector<float> panels(PackedPanelSize(out_dim, in_dim));
      PanelVector<Bf16> bf16_panels(panels.size());
      PackPanels(out_dim, in_dim, w.data(), panels.data(),
                 bf16_panels.data());

      std::vector<float> x(static_cast<size_t>(kMaxRows) * in_dim);
      FillUniform(&x, rng, -2.0, 2.0);
      for (size_t i = 0; i < x.size(); i += 7) x[i] = 0.0f;  // ReLU zeros.
      const size_t all = static_cast<size_t>(kMaxRows) * out_dim;
      std::vector<float> naive32(all), naive32_unbiased(all);
      std::vector<float> naive16(all), naive16_unbiased(all);
      for (int r = 0; r < kMaxRows; ++r) {
        const float* xr = x.data() + static_cast<size_t>(r) * in_dim;
        const size_t at = static_cast<size_t>(r) * out_dim;
        fp32.Forward(xr, naive32.data() + at);
        fp32_unbiased.Forward(xr, naive32_unbiased.data() + at);
        layer.Forward(xr, naive16.data() + at);
        unbiased.Forward(xr, naive16_unbiased.data() + at);
      }

      for (const int rows :
           {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 17, 64, 65, 147}) {
        const size_t n = static_cast<size_t>(rows) * out_dim;
        for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
          const std::string shape =
              "out " + std::to_string(out_dim) + " in " +
              std::to_string(in_dim) + " rows " + std::to_string(rows) +
              (p != nullptr ? " pooled" : " serial");
          // One panel form against its naive outputs, with and without a
          // bias, then through the layer's own dispatched ForwardBatch.
          const auto check = [&](const auto* form, const char* name,
                                 const std::vector<float>& naive,
                                 const std::vector<float>& naive_unbiased,
                                 bool train) {
            const std::string where = shape + " " + name;
            std::vector<float> y(n + kGuard, sentinel);
            internal::GemmBiasWithKernel(kernel, rows, out_dim, in_dim,
                                         x.data(), form, b.data(), y.data(),
                                         p);
            ASSERT_TRUE(BitEqual(naive.data(), y.data(), n)) << where;
            for (size_t i = n; i < y.size(); ++i) {
              ASSERT_EQ(y[i], sentinel) << where << ": wrote past y";
            }

            // A null bias is a zero bias.
            std::vector<float> y0(n, sentinel);
            internal::GemmBiasWithKernel(kernel, rows, out_dim, in_dim,
                                         x.data(), form, nullptr, y0.data(),
                                         p);
            ASSERT_TRUE(BitEqual(naive_unbiased.data(), y0.data(), n))
                << where << " (null bias)";

            if (selected) {
              std::vector<float> batched(n, sentinel);
              layer.ForwardBatch(x.data(), rows, batched.data(), train, p);
              ASSERT_TRUE(BitEqual(naive.data(), batched.data(), n))
                  << where << " (ForwardBatch)";
            }
          };
          check(panels.data(), "fp32", naive32, naive32_unbiased,
                /*train=*/true);
          check(bf16_panels.data(), "bf16", naive16, naive16_unbiased,
                /*train=*/false);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, GemmKernelTest,
    testing::Values(internal::GemmKernel::kPortable,
                    internal::GemmKernel::kAvx2,
                    internal::GemmKernel::kAvx512),
    [](const testing::TestParamInfo<internal::GemmKernel>& info) {
      switch (info.param) {
        case internal::GemmKernel::kAvx2:
          return std::string("avx2");
        case internal::GemmKernel::kAvx512:
          return std::string("avx512");
        default:
          return std::string("portable");
      }
    });

TEST(LinearTest, BackwardBatchBitEqualsNaivePerRow) {
  Rng rng(23);
  Linear naive;
  naive.Init(13, 9, rng);
  std::stringstream snapshot;
  naive.Save(snapshot);
  Linear batched;
  ASSERT_TRUE(batched.Load(snapshot));

  const int rows = 131;
  std::vector<float> x(static_cast<size_t>(rows) * 13);
  std::vector<float> dy(static_cast<size_t>(rows) * 9);
  FillUniform(&x, rng);
  FillUniform(&dy, rng);
  // Exact zeros exercise the g == 0 skip both paths share.
  for (size_t i = 0; i < dy.size(); i += 5) dy[i] = 0.0f;

  std::vector<float> dx_naive(x.size(), 0.0f);
  std::vector<float> dx_batched(x.size(), 0.0f);
  naive.ZeroGrad();
  for (int r = 0; r < rows; ++r) {
    naive.Backward(x.data() + static_cast<size_t>(r) * 13,
                   dy.data() + static_cast<size_t>(r) * 9,
                   dx_naive.data() + static_cast<size_t>(r) * 13);
  }
  batched.ZeroGrad();
  batched.BackwardBatch(x.data(), dy.data(), rows, dx_batched.data());
  EXPECT_TRUE(BitEqual(dx_naive.data(), dx_batched.data(), dx_naive.size()));

  // Identical gradients => identical weights after an identical step.
  const AdamConfig adam;
  naive.Step(adam, rows);
  batched.Step(adam, rows);
  std::stringstream naive_bytes;
  std::stringstream batched_bytes;
  naive.Save(naive_bytes);
  batched.Save(batched_bytes);
  EXPECT_EQ(naive_bytes.str(), batched_bytes.str());
}

// The two panel forms hold the same weights when every weight is already a
// bf16 value, so a training forward and an eval forward agree to the byte.
TEST(LinearTest, TrainAndEvalForwardsAgreeOnBf16RepresentableWeights) {
  Rng rng(29);
  constexpr int kIn = 37;
  constexpr int kOut = 45;
  std::vector<float> w(static_cast<size_t>(kIn) * kOut);
  std::vector<float> b(kOut);
  FillUniform(&w, rng);
  FillUniform(&b, rng);
  for (float& v : w) v = Bf16ToFloat(RoundToBf16(v));
  const Linear layer = LoadedLinear(kIn, kOut, w, b);

  ThreadPool pool(2);
  for (const int rows : {1, 3, 8, 70}) {
    std::vector<float> x(static_cast<size_t>(rows) * kIn);
    FillUniform(&x, rng, -2.0, 2.0);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      std::vector<float> trained(static_cast<size_t>(rows) * kOut, -1.0f);
      std::vector<float> served(trained.size(), -2.0f);
      layer.ForwardBatch(x.data(), rows, trained.data(), /*train=*/true, p);
      layer.ForwardBatch(x.data(), rows, served.data(), /*train=*/false, p);
      EXPECT_TRUE(BitEqual(trained.data(), served.data(), trained.size()))
          << rows << " rows" << (p != nullptr ? " pooled" : " serial");
    }
  }
}

// The bytes of a layer's stream, and its eval outputs on a fixed input:
// what a failed load must leave as they were.
struct LinearState {
  int in_dim = 0;
  int out_dim = 0;
  std::string bytes;
  std::vector<float> eval;
};

LinearState StateOf(const Linear& layer) {
  LinearState state;
  state.in_dim = layer.in_dim();
  state.out_dim = layer.out_dim();
  std::stringstream stream;
  layer.Save(stream);
  state.bytes = stream.str();
  std::vector<float> x(static_cast<size_t>(2) * layer.in_dim());
  for (size_t i = 0; i < x.size(); ++i) x[i] = 0.25f * (i % 5) - 0.5f;
  state.eval.resize(static_cast<size_t>(2) * layer.out_dim());
  layer.ForwardBatch(x.data(), 2, state.eval.data(), /*train=*/false);
  return state;
}

void ExpectSameState(const LinearState& want, const LinearState& got) {
  EXPECT_EQ(want.in_dim, got.in_dim);
  EXPECT_EQ(want.out_dim, got.out_dim);
  EXPECT_EQ(want.bytes, got.bytes);
  ASSERT_EQ(want.eval.size(), got.eval.size());
  EXPECT_TRUE(BitEqual(want.eval.data(), got.eval.data(), want.eval.size()));
}

// Param::Load rejects only NaN and +-inf. A finite weight at or past
// 0x7F7F8000 rounds to a bf16 infinity, so the eval forward through it
// would be non-finite: the layer must refuse it and stay as it was.
TEST(LinearTest, LoadRejectsWeightThatRoundsToBf16Infinity) {
  Rng rng(47);
  Linear layer;
  layer.Init(5, 4, rng);
  const LinearState before = StateOf(layer);

  for (const uint32_t bits : {0x7F7FFFFFu, 0x7F7F8000u, 0xFF7F8000u}) {
    std::vector<float> w(6, 0.5f);
    w[4] = std::bit_cast<float>(bits);
    ASSERT_TRUE(std::isfinite(w[4]));
    std::istringstream in(LinearStream(3, 2, w, {0.1f, -0.1f}));
    EXPECT_FALSE(layer.Load(in)) << std::hex << bits;
    ExpectSameState(before, StateOf(layer));
  }
}

TEST(LinearTest, LoadsLargestWeightThatRoundsFinite) {
  std::vector<float> w(6, 0.5f);
  w[4] = std::bit_cast<float>(0x7F7F7FFFu);
  std::istringstream in(LinearStream(3, 2, w, {0.1f, -0.1f}));
  Linear layer;
  ASSERT_TRUE(layer.Load(in));
  const float x[3] = {0.25f, -0.5f, 0.125f};
  float y[2];
  layer.Forward(x, y);
  float batched[2];
  layer.ForwardBatch(x, 1, batched, /*train=*/false);
  for (int o = 0; o < 2; ++o) {
    EXPECT_TRUE(std::isfinite(y[o])) << o;
    EXPECT_TRUE(std::isfinite(batched[o])) << o;
  }
  EXPECT_TRUE(BitEqual(y, batched, 2));
}

// A stream whose weights load but whose bias is cut short must not leave
// the new weights behind the old dims and panels.
TEST(LinearTest, TruncatedBiasLeavesLayerUnchanged) {
  Rng rng(49);
  Linear layer;
  layer.Init(5, 4, rng);
  const LinearState before = StateOf(layer);

  std::vector<float> w(6);
  FillUniform(&w, rng);
  const std::string full = LinearStream(3, 2, w, {0.1f, -0.1f});
  // Drop the last bias value.
  std::istringstream in(full.substr(0, full.size() - sizeof(float)));
  EXPECT_FALSE(layer.Load(in));
  ExpectSameState(before, StateOf(layer));
}

// Numerical gradient check for the MLP (and transitively Linear).
TEST(MlpTest, GradientsMatchFiniteDifferences) {
  Rng rng(5);
  Mlp mlp;
  mlp.Init({3, 4, 1}, rng);

  const float x[3] = {0.3f, -0.7f, 0.9f};
  const double target = 0.5;

  // Analytic input gradient: loss = 0.5*(out - target)^2. Backward
  // differentiates the training forward (fp32 weights), so both the
  // analytic and the numeric gradient go through it, with dropout off.
  Mlp::Workspace ws;
  const float* out = mlp.Forward(x, &ws, /*train=*/true);
  const float dout = out[0] - static_cast<float>(target);
  float dx[3] = {0, 0, 0};
  mlp.ZeroGrad();
  mlp.Backward(&dout, ws, dx);

  const double eps = 1e-3;
  for (int i = 0; i < 3; ++i) {
    float xp[3] = {x[0], x[1], x[2]};
    float xm[3] = {x[0], x[1], x[2]};
    xp[i] += eps;
    xm[i] -= eps;
    Mlp::Workspace wsp;
    Mlp::Workspace wsm;
    const double lp = 0.5 * std::pow(
        mlp.Forward(xp, &wsp, /*train=*/true)[0] - target, 2);
    const double lm = 0.5 * std::pow(
        mlp.Forward(xm, &wsm, /*train=*/true)[0] - target, 2);
    EXPECT_NEAR(dx[i], (lp - lm) / (2 * eps), 2e-3) << "input " << i;
  }
}

TEST(MlpTest, LearnsNonlinearFunction) {
  // y = x0^2 + sin(3*x1), a smooth nonlinear target.
  Rng rng(7);
  Mlp mlp;
  mlp.Init({2, 24, 24, 1}, rng);
  AdamConfig adam;
  adam.learning_rate = 3e-3f;

  for (int step = 0; step < 3000; ++step) {
    mlp.ZeroGrad();
    const int batch = 16;
    for (int b = 0; b < batch; ++b) {
      const float x[2] = {static_cast<float>(rng.NextUniform(-1, 1)),
                          static_cast<float>(rng.NextUniform(-1, 1))};
      const double y = x[0] * x[0] + std::sin(3.0 * x[1]);
      Mlp::Workspace ws;
      const float* out = mlp.Forward(x, &ws, /*train=*/true);
      const float dout = out[0] - static_cast<float>(y);
      mlp.Backward(&dout, ws, nullptr);
    }
    mlp.Step(adam, 16.0);
  }

  double total = 0.0;
  for (int i = 0; i < 200; ++i) {
    const float x[2] = {static_cast<float>(rng.NextUniform(-0.9, 0.9)),
                        static_cast<float>(rng.NextUniform(-0.9, 0.9))};
    const double y = x[0] * x[0] + std::sin(3.0 * x[1]);
    Mlp::Workspace ws;
    total += std::abs(mlp.Forward(x, &ws)[0] - y);
  }
  EXPECT_LT(total / 200.0, 0.12);
}

TEST(MlpTest, DropoutZerosSomeActivationsInTrainOnly) {
  Rng rng(9);
  Mlp mlp;
  mlp.Init({4, 32, 1}, rng);
  const float x[4] = {1.0f, 1.0f, 1.0f, 1.0f};
  Mlp::Workspace eval_ws;
  mlp.Forward(x, &eval_ws);
  EXPECT_EQ(eval_ws.masks[0], nullptr);

  Mlp::Workspace train_ws;
  mlp.Forward(x, &train_ws, /*train=*/true, 0.5f, &rng);
  ASSERT_NE(train_ws.masks[0], nullptr);
  int dropped = 0;
  for (int i = 0; i < 32; ++i) {
    dropped += train_ws.masks[0][i] == 0.0f ? 1 : 0;
  }
  EXPECT_GT(dropped, 4);
  EXPECT_LT(dropped, 28);
}

TEST(MlpTest, ForwardBatchBitEqualsPerRowForward) {
  Rng rng(25);
  Mlp mlp;
  mlp.Init({6, 17, 9, 2}, rng);
  const int rows = 83;
  std::vector<float> x(static_cast<size_t>(rows) * 6);
  FillUniform(&x, rng);

  std::vector<float> per_row(static_cast<size_t>(rows) * 2);
  Mlp::Workspace single_ws;
  for (int r = 0; r < rows; ++r) {
    const float* out =
        mlp.Forward(x.data() + static_cast<size_t>(r) * 6, &single_ws);
    per_row[static_cast<size_t>(r) * 2] = out[0];
    per_row[static_cast<size_t>(r) * 2 + 1] = out[1];
  }

  Mlp::Workspace batch_ws;
  const float* batched = mlp.ForwardBatch(x.data(), rows, &batch_ws);
  EXPECT_TRUE(BitEqual(per_row.data(), batched, per_row.size()));

  ThreadPool pool(2);
  Mlp::Workspace pool_ws;
  const float* pooled = mlp.ForwardBatch(x.data(), rows, &pool_ws,
                                         /*train=*/false, 0.0f, nullptr,
                                         &pool);
  EXPECT_TRUE(BitEqual(per_row.data(), pooled, per_row.size()));
}

TEST(MlpTest, BackwardBatchBitEqualAcrossPoolWidths) {
  Rng rng(27);
  Mlp reference;
  reference.Init({5, 16, 8, 1}, rng);
  std::stringstream snapshot;
  reference.Save(snapshot);

  const int rows = 97;
  std::vector<float> x(static_cast<size_t>(rows) * 5);
  std::vector<float> dout(static_cast<size_t>(rows));
  FillUniform(&x, rng);
  FillUniform(&dout, rng);

  // Serial run is the reference; every pool width must produce identical
  // gradient bytes (hence identical weights after an identical step) and
  // identical input gradients.
  const AdamConfig adam;
  std::string expected_bytes;
  std::vector<float> expected_dx;
  for (const int width : {0, 1, 2, 8}) {
    Mlp mlp;
    std::stringstream copy(snapshot.str());
    ASSERT_TRUE(mlp.Load(copy));
    ThreadPool pool(width == 0 ? 1 : width);
    ThreadPool* pool_ptr = width == 0 ? nullptr : &pool;
    Mlp::Workspace ws;
    mlp.ForwardBatch(x.data(), rows, &ws, /*train=*/true, 0.0f, nullptr,
                     pool_ptr);
    std::vector<float> dx(x.size(), 0.0f);
    mlp.ZeroGrad();
    mlp.BackwardBatch(dout.data(), ws, dx.data(), pool_ptr);
    mlp.Step(adam, rows);
    std::stringstream bytes;
    mlp.Save(bytes);
    if (width == 0) {
      expected_bytes = bytes.str();
      expected_dx = dx;
    } else {
      EXPECT_EQ(expected_bytes, bytes.str()) << "pool width " << width;
      EXPECT_TRUE(BitEqual(expected_dx.data(), dx.data(), dx.size()))
          << "pool width " << width;
    }
  }
}

TEST(MlpDeathTest, BackwardAfterEvalForwardDies) {
  Rng rng(46);
  Mlp mlp;
  mlp.Init({3, 4, 1}, rng);
  const std::vector<float> x = {0.5f, -0.5f, 1.0f};
  const float dout = 1.0f;
  // An eval forward's activations come from the bf16 weights, while
  // backward differentiates the fp32 ones.
  Mlp::Workspace ws;
  mlp.Forward(x.data(), &ws);
  EXPECT_DEATH(mlp.Backward(&dout, ws, nullptr), "training forward");
}

TEST(TreeGcnTest, GradientsMatchFiniteDifferences) {
  Rng rng(11);
  TreeGcn::Config config;
  config.input_dim = 3;
  config.hidden_dim = 5;
  config.num_layers = 2;
  config.dropout = 0.0f;
  TreeGcn gcn;
  gcn.Init(config, rng);

  // A 4-node tree: 0 -> {1, 2}, 2 -> {3}.
  const std::vector<std::vector<int32_t>> children = {{1, 2}, {}, {3}, {}};
  std::vector<float> feats(4 * 3);
  for (float& f : feats) f = static_cast<float>(rng.NextUniform(-1, 1));

  // Loss = 0.5 * ||root||^2 so droot = root. Backward needs a training
  // forward, and the loss below is measured through one too (dropout 0),
  // since an eval forward multiplies by the bf16-rounded weights.
  TreeGcn::Workspace ws;
  const float* root =
      gcn.Forward(feats.data(), 4, children, &ws, /*train=*/true);
  std::vector<float> droot(root, root + 5);
  gcn.ZeroGrad();
  gcn.Backward(droot.data(), children, ws);

  // The backward pass does not return input grads, so check that a
  // parameter step reduces the loss (descent direction sanity).
  auto loss_of = [&]() {
    TreeGcn::Workspace w2;
    const float* r =
        gcn.Forward(feats.data(), 4, children, &w2, /*train=*/true);
    double loss = 0.0;
    for (int j = 0; j < 5; ++j) loss += 0.5 * r[j] * r[j];
    return loss;
  };
  const double before = loss_of();
  AdamConfig adam;
  adam.learning_rate = 1e-2f;
  gcn.Step(adam, 1.0);
  const double after = loss_of();
  EXPECT_LT(after, before);
}

TEST(TreeGcnTest, OverfitsTinyRegressionSet) {
  // Distinguish three small trees by structure/features alone.
  Rng rng(13);
  TreeGcn::Config config;
  config.input_dim = 2;
  config.hidden_dim = 16;
  config.num_layers = 2;
  config.dropout = 0.0f;
  TreeGcn gcn;
  gcn.Init(config, rng);
  Mlp head;
  head.Init({16, 16, 1}, rng);

  struct Example {
    std::vector<float> feats;
    std::vector<std::vector<int32_t>> children;
    double target;
  };
  const std::vector<Example> examples = {
      {{1, 0, 0, 1}, {{1}, {}}, 1.0},
      {{0, 1, 1, 0}, {{1}, {}}, -1.0},
      {{1, 1, 0.5, 0.5, 0.2, 0.8}, {{1, 2}, {}, {}}, 0.5},
  };

  AdamConfig adam;
  adam.learning_rate = 5e-3f;
  for (int step = 0; step < 1500; ++step) {
    gcn.ZeroGrad();
    head.ZeroGrad();
    for (const Example& example : examples) {
      TreeGcn::Workspace gws;
      Mlp::Workspace hws;
      const int n = static_cast<int>(example.children.size());
      const float* root = gcn.Forward(example.feats.data(), n,
                                      example.children, &gws, /*train=*/true);
      const float* out = head.Forward(root, &hws, /*train=*/true);
      const float dout = out[0] - static_cast<float>(example.target);
      std::vector<float> droot(16, 0.0f);
      head.Backward(&dout, hws, droot.data());
      gcn.Backward(droot.data(), example.children, gws);
    }
    gcn.Step(adam, examples.size());
    head.Step(adam, examples.size());
  }

  for (const Example& example : examples) {
    TreeGcn::Workspace gws;
    Mlp::Workspace hws;
    const int n = static_cast<int>(example.children.size());
    const float* root =
        gcn.Forward(example.feats.data(), n, example.children, &gws);
    EXPECT_NEAR(head.Forward(root, &hws)[0], example.target, 0.1);
  }
}

TEST(TreeGcnTest, DeepChainPropagatesLeafInformation) {
  // With L layers, information from depth <= L reaches the root: changing
  // the leaf of a chain of length <= num_layers+1 must change the root.
  Rng rng(17);
  TreeGcn::Config config;
  config.input_dim = 1;
  config.hidden_dim = 8;
  config.num_layers = 3;
  config.dropout = 0.0f;
  TreeGcn gcn;
  gcn.Init(config, rng);

  const int n = 4;  // Chain 0->1->2->3; leaf at depth 4 reachable by 3 hops.
  const auto children = Chain(n);
  std::vector<float> base(n, 0.5f);
  std::vector<float> modified = base;
  modified[n - 1] = 5.0f;

  TreeGcn::Workspace ws1;
  TreeGcn::Workspace ws2;
  const float* r1 = gcn.Forward(base.data(), n, children, &ws1);
  std::vector<float> saved(r1, r1 + 8);
  const float* r2 = gcn.Forward(modified.data(), n, children, &ws2);
  double diff = 0.0;
  for (int j = 0; j < 8; ++j) diff += std::abs(saved[j] - r2[j]);
  EXPECT_GT(diff, 1e-4);
}

TEST(TreeGcnTest, SingleNodeTreeWorks) {
  Rng rng(19);
  TreeGcn::Config config;
  config.input_dim = 4;
  config.hidden_dim = 8;
  config.num_layers = 2;
  TreeGcn gcn;
  gcn.Init(config, rng);
  const std::vector<float> feats = {1.0f, 2.0f, 3.0f, 4.0f};
  const std::vector<std::vector<int32_t>> children = {{}};
  TreeGcn::Workspace ws;
  const float* root = gcn.Forward(feats.data(), 1, children, &ws);
  for (int j = 0; j < 8; ++j) {
    EXPECT_TRUE(std::isfinite(root[j]));
  }
}

TEST(TreeGcnTest, ForwardBitEqualsNaiveReference) {
  Rng rng(31);
  TreeGcn::Config config;
  config.input_dim = 6;
  config.hidden_dim = 12;
  config.num_layers = 3;
  config.dropout = 0.0f;
  TreeGcn gcn;
  gcn.Init(config, rng);
  std::stringstream snapshot;
  gcn.Save(snapshot);
  ParsedTreeGcn naive;
  ASSERT_TRUE(naive.Parse(snapshot));

  std::vector<std::vector<std::vector<int32_t>>> shapes;
  shapes.push_back({{}});        // Single node.
  shapes.push_back(Chain(12));   // Deeper than num_layers.
  shapes.push_back(Star(32));    // Wide fan-out.
  for (const int n : {2, 7, 19, 40}) shapes.push_back(RandomTree(n, rng));

  TreeGcn::Workspace ws;
  for (size_t s = 0; s < shapes.size(); ++s) {
    const auto& children = shapes[s];
    const int n = static_cast<int>(children.size());
    std::vector<float> feats(static_cast<size_t>(n) * 6);
    FillUniform(&feats, rng, -1.5, 1.5);
    const float* root = gcn.Forward(feats.data(), n, children, &ws);
    const std::vector<float> expected = naive.Forward(feats.data(), children);
    EXPECT_TRUE(BitEqual(expected.data(), root, expected.size()))
        << "shape " << s << " (" << n << " nodes)";
  }
}

TEST(TreeGcnTest, ForwardBatchBitEqualsPerTreeForward) {
  Rng rng(33);
  TreeGcn::Config config;
  config.input_dim = 5;
  config.hidden_dim = 10;
  config.num_layers = 2;
  config.dropout = 0.0f;
  TreeGcn gcn;
  gcn.Init(config, rng);

  std::vector<std::vector<std::vector<int32_t>>> shapes;
  shapes.push_back({{}});
  shapes.push_back(Chain(9));
  shapes.push_back(Star(17));
  for (const int n : {3, 11, 28}) shapes.push_back(RandomTree(n, rng));

  std::vector<std::vector<float>> feats;
  TreeBatch batch;
  batch.Clear(5);
  for (const auto& children : shapes) {
    const int n = static_cast<int>(children.size());
    std::vector<float> f(static_cast<size_t>(n) * 5);
    FillUniform(&f, rng);
    batch.AddTree(f.data(), n, children);
    feats.push_back(std::move(f));
  }

  std::vector<float> expected;
  TreeGcn::Workspace single_ws;
  for (size_t t = 0; t < shapes.size(); ++t) {
    const float* root =
        gcn.Forward(feats[t].data(), static_cast<int>(shapes[t].size()),
                    shapes[t], &single_ws);
    expected.insert(expected.end(), root, root + 10);
  }

  TreeGcn::Workspace batch_ws;
  const float* roots = gcn.ForwardBatch(batch, &batch_ws);
  EXPECT_TRUE(BitEqual(expected.data(), roots, expected.size()));

  ThreadPool pool(3);
  TreeGcn::Workspace pool_ws;
  const float* pooled =
      gcn.ForwardBatch(batch, &pool_ws, false, nullptr, &pool);
  EXPECT_TRUE(BitEqual(expected.data(), pooled, expected.size()));
}

// The eval pass computes only the rows a root reads, laid out level-major
// across the whole forest; the naive walk computes every node of one tree
// at a time. A prune that drops a row some root reads, or a layout that
// mixes up whose children are whose, shows here as a differing root.
TEST(TreeGcnTest, EvalForwardBatchBitEqualsNaiveWalkOverForest) {
  Rng rng(43);
  TreeGcn::Config config;
  config.input_dim = 6;
  config.hidden_dim = 40;  // Three panels, the last one padded.
  config.num_layers = 3;
  config.dropout = 0.2f;  // Eval ignores it.
  TreeGcn gcn;
  gcn.Init(config, rng);
  std::stringstream snapshot;
  gcn.Save(snapshot);
  ParsedTreeGcn naive;
  ASSERT_TRUE(naive.Parse(snapshot));

  std::vector<std::vector<std::vector<int32_t>>> shapes;
  shapes.push_back(Chain(12));  // Deeper than num_layers.
  shapes.push_back({{}});       // Single node.
  shapes.push_back(Star(9));
  shapes.push_back(Chain(3));  // Deepest node at num_layers - 1.
  shapes.push_back(Chain(4));  // Deepest node at num_layers.
  for (const int n : {2, 5, 13, 40, 90}) shapes.push_back(RandomTree(n, rng));
  shapes.push_back(Star(30));

  TreeBatch batch;
  batch.Clear(6);
  std::vector<float> expected;
  for (const auto& children : shapes) {
    const int n = static_cast<int>(children.size());
    std::vector<float> feats(static_cast<size_t>(n) * 6);
    FillUniform(&feats, rng, -1.5, 1.5);
    batch.AddTree(feats.data(), n, children);
    const std::vector<float> root = naive.Forward(feats.data(), children);
    expected.insert(expected.end(), root.begin(), root.end());
  }

  ThreadPool pool(3);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    TreeGcn::Workspace ws;
    const float* roots = gcn.ForwardBatch(batch, &ws, false, nullptr, p);
    EXPECT_TRUE(BitEqual(expected.data(), roots, expected.size()))
        << (p != nullptr ? "pooled" : "serial");
  }
}

TEST(TreeBatchTest, LevelMajorKeepsEachParentsChildrenInOrder) {
  // Tree A: 0 -> {1, 2}, 2 -> {3}, 3 -> {4}. Tree B: 0 -> {1}.
  const std::vector<std::vector<int32_t>> a = {{1, 2}, {}, {3}, {4}, {}};
  const std::vector<std::vector<int32_t>> b = {{1}, {}};
  const std::vector<float> fa = {10, 11, 12, 13, 14};
  const std::vector<float> fb = {20, 21};
  TreeBatch trees;
  trees.Clear(1);
  trees.AddTree(fa.data(), 5, a);
  trees.AddTree(fb.data(), 2, b);

  TreeBatch levels;
  levels.AssignLevelMajor(trees, /*max_depth=*/2);
  // Depth 0: A0 B0; depth 1: A1 A2 B1; depth 2: A3. A4 is dropped, so A3
  // keeps no children.
  ASSERT_EQ(levels.num_nodes(), 6);
  const float want[] = {10, 20, 11, 12, 21, 13};
  for (int s = 0; s < 6; ++s) EXPECT_EQ(levels.features()[s], want[s]);
  EXPECT_EQ(levels.root_slot(0), 0);
  EXPECT_EQ(levels.root_slot(1), 1);
  EXPECT_EQ(levels.child_start(0), 2);
  EXPECT_EQ(levels.child_count(0), 2);
  EXPECT_EQ(levels.child_start(1), 4);
  EXPECT_EQ(levels.child_count(1), 1);
  EXPECT_EQ(levels.child_start(3), 5);
  EXPECT_EQ(levels.child_count(3), 1);
  EXPECT_EQ(levels.child_count(5), 0);
  EXPECT_EQ(levels.SlotsWithinDepth(0), 2);
  EXPECT_EQ(levels.SlotsWithinDepth(1), 5);
  EXPECT_EQ(levels.SlotsWithinDepth(2), 6);
  EXPECT_EQ(levels.SlotsWithinDepth(7), 6);
}

TEST(TreeGcnTest, BackwardBatchBitEqualAcrossPoolWidths) {
  Rng rng(35);
  TreeGcn::Config config;
  config.input_dim = 4;
  config.hidden_dim = 9;
  config.num_layers = 2;
  config.dropout = 0.0f;
  TreeGcn reference;
  reference.Init(config, rng);
  std::stringstream snapshot;
  reference.Save(snapshot);

  TreeBatch batch;
  batch.Clear(4);
  std::vector<std::vector<std::vector<int32_t>>> shapes;
  shapes.push_back(Chain(6));
  shapes.push_back(Star(8));
  shapes.push_back(RandomTree(15, rng));
  for (const auto& children : shapes) {
    const int n = static_cast<int>(children.size());
    std::vector<float> f(static_cast<size_t>(n) * 4);
    FillUniform(&f, rng);
    batch.AddTree(f.data(), n, children);
  }
  std::vector<float> droots(static_cast<size_t>(batch.num_trees()) * 9);
  FillUniform(&droots, rng);

  const AdamConfig adam;
  std::string expected_bytes;
  for (const int width : {0, 1, 2, 8}) {
    TreeGcn gcn;
    std::stringstream copy(snapshot.str());
    ASSERT_TRUE(gcn.Load(copy));
    ThreadPool pool(width == 0 ? 1 : width);
    ThreadPool* pool_ptr = width == 0 ? nullptr : &pool;
    TreeGcn::Workspace ws;
    gcn.ForwardBatch(batch, &ws, /*train=*/true, nullptr, pool_ptr);
    gcn.ZeroGrad();
    gcn.BackwardBatch(droots.data(), batch, ws, pool_ptr);
    gcn.Step(adam, batch.num_trees());
    std::stringstream bytes;
    gcn.Save(bytes);
    if (width == 0) {
      expected_bytes = bytes.str();
    } else {
      EXPECT_EQ(expected_bytes, bytes.str()) << "pool width " << width;
    }
  }
}

TEST(TreeGcnDeathTest, BackwardAfterEvalForwardDies) {
  Rng rng(45);
  TreeGcn::Config config;
  config.input_dim = 2;
  config.hidden_dim = 4;
  config.num_layers = 2;
  config.dropout = 0.0f;
  TreeGcn gcn;
  gcn.Init(config, rng);
  const std::vector<std::vector<int32_t>> children = {{1}, {}};
  const std::vector<float> feats = {0.5f, -0.5f, 1.0f, 2.0f};
  const std::vector<float> droot(4, 1.0f);
  // An eval forward keeps only the rows its roots read, in level-major
  // order, which is not what backward walks.
  TreeGcn::Workspace ws;
  gcn.Forward(feats.data(), 2, children, &ws);
  EXPECT_DEATH(gcn.Backward(droot.data(), children, ws), "training forward");
}

TEST(TreeGcnTest, RepeatedForwardIsAllocationFreeOnceWarm) {
  Rng rng(37);
  TreeGcn::Config config;
  config.input_dim = 7;
  config.hidden_dim = 16;
  config.num_layers = 3;
  config.dropout = 0.0f;
  TreeGcn gcn;
  gcn.Init(config, rng);
  Mlp head;
  head.Init({16, 24, 1}, rng);

  const auto children = RandomTree(21, rng);
  std::vector<float> feats(21 * 7);
  FillUniform(&feats, rng);

  // Warm up: the first calls grow the arenas to the high-water mark (and
  // this thread's GEMM pack scratch).
  TreeGcn::Workspace gws;
  Mlp::Workspace hws;
  for (int i = 0; i < 3; ++i) {
    const float* root = gcn.Forward(feats.data(), 21, children, &gws);
    head.Forward(root, &hws);
  }
  const size_t gcn_capacity = gws.CapacityFloats();
  const size_t head_capacity = hws.CapacityFloats();

  // Steady state: the arenas stop growing...
  g_allocations.store(0, std::memory_order_relaxed);
  g_count_allocations.store(true, std::memory_order_relaxed);
  for (int i = 0; i < 200; ++i) {
    const float* root = gcn.Forward(feats.data(), 21, children, &gws);
    head.Forward(root, &hws);
  }
  g_count_allocations.store(false, std::memory_order_relaxed);
  const uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(gws.CapacityFloats(), gcn_capacity);
  EXPECT_EQ(hws.CapacityFloats(), head_capacity);
  // ...and (sanitizers instrument allocation paths, so only assert the hard
  // zero on plain builds) the warm path touches the heap not even once.
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  EXPECT_EQ(allocations, 0u);
#else
  (void)allocations;
#endif
}

TEST(TreeGcnTest, LoadRejectsCorruptedDropout) {
  Rng rng(39);
  TreeGcn::Config config;
  config.input_dim = 3;
  config.hidden_dim = 6;
  config.num_layers = 2;
  config.dropout = 0.1f;
  TreeGcn gcn;
  gcn.Init(config, rng);
  std::stringstream buffer;
  gcn.Save(buffer);
  const std::string bytes = buffer.str();

  // The stream starts with three int32 dims, then the float dropout.
  const size_t dropout_offset = 3 * sizeof(int32_t);
  const float corrupted[] = {std::nanf(""), -1.0f, -0.001f, 1.0f, 2.0f};
  for (const float bad : corrupted) {
    std::string patched = bytes;
    std::memcpy(patched.data() + dropout_offset, &bad, sizeof(float));
    std::istringstream in(patched);
    TreeGcn loaded;
    EXPECT_FALSE(loaded.Load(in)) << "dropout " << bad;
  }

  // The untouched stream still round-trips.
  std::istringstream in(bytes);
  TreeGcn loaded;
  EXPECT_TRUE(loaded.Load(in));
}

TEST(TreeGcnTest, LoadRejectsLayersThatDisagreeWithHeader) {
  Rng rng(41);
  TreeGcn::Config config;
  config.input_dim = 4;
  config.hidden_dim = 64;
  config.num_layers = 2;
  TreeGcn gcn;
  gcn.Init(config, rng);
  std::stringstream buffer;
  gcn.Save(buffer);
  const std::string bytes = buffer.str();

  // The stream starts with input_dim, hidden_dim, num_layers (int32 each).
  // Forward sizes its arena rows from the header, so a header narrower
  // than the layers (hidden 8 over 4 -> 64 layers) would let Forward write
  // 64-float rows into 8-float slots; a header whose input width differs
  // from layer 0's would read past each feature row.
  const struct {
    size_t offset;
    int32_t value;
  } lies[] = {{sizeof(int32_t), 8}, {sizeof(int32_t), 65}, {0, 5}, {0, 3}};
  for (const auto& lie : lies) {
    std::string patched = bytes;
    std::memcpy(patched.data() + lie.offset, &lie.value, sizeof(int32_t));
    std::istringstream in(patched);
    TreeGcn loaded;
    EXPECT_FALSE(loaded.Load(in))
        << "header field at " << lie.offset << " = " << lie.value;
  }

  // A failed load leaves a loaded network as it was.
  std::istringstream good(bytes);
  TreeGcn loaded;
  ASSERT_TRUE(loaded.Load(good));
  std::string patched = bytes;
  const int32_t narrow = 8;
  std::memcpy(patched.data() + sizeof(int32_t), &narrow, sizeof(int32_t));
  std::istringstream bad(patched);
  EXPECT_FALSE(loaded.Load(bad));
  EXPECT_EQ(loaded.hidden_dim(), 64);
  EXPECT_EQ(loaded.input_dim(), 4);
}

TEST(SerializationTest, MlpRoundTripPreservesOutputs) {
  Rng rng(71);
  Mlp original;
  original.Init({4, 8, 2}, rng);
  std::stringstream buffer;
  original.Save(buffer);
  Mlp restored;
  ASSERT_TRUE(restored.Load(buffer));
  EXPECT_EQ(restored.in_dim(), 4);
  EXPECT_EQ(restored.out_dim(), 2);
  const float x[4] = {0.1f, -0.2f, 0.3f, -0.4f};
  Mlp::Workspace ws1;
  Mlp::Workspace ws2;
  const float* a = original.Forward(x, &ws1);
  const float* b = restored.Forward(x, &ws2);
  for (int j = 0; j < 2; ++j) EXPECT_FLOAT_EQ(a[j], b[j]);
}

TEST(SerializationTest, TreeGcnRoundTripPreservesOutputs) {
  Rng rng(73);
  TreeGcn::Config config;
  config.input_dim = 3;
  config.hidden_dim = 6;
  config.num_layers = 2;
  TreeGcn original;
  original.Init(config, rng);
  std::stringstream buffer;
  original.Save(buffer);
  TreeGcn restored;
  ASSERT_TRUE(restored.Load(buffer));
  EXPECT_EQ(restored.hidden_dim(), 6);

  const std::vector<std::vector<int32_t>> children = {{1, 2}, {}, {}};
  std::vector<float> feats(9, 0.3f);
  TreeGcn::Workspace ws1;
  TreeGcn::Workspace ws2;
  const float* a = original.Forward(feats.data(), 3, children, &ws1);
  std::vector<float> saved(a, a + 6);
  const float* b = restored.Forward(feats.data(), 3, children, &ws2);
  for (int j = 0; j < 6; ++j) EXPECT_FLOAT_EQ(saved[j], b[j]);
}

TEST(SerializationTest, MlpRejectsGarbage) {
  Mlp mlp;
  std::stringstream garbage("garbage bytes here");
  EXPECT_FALSE(mlp.Load(garbage));
}

// A stream that fails in its last layer must not leave the earlier layers
// (or the new dims) behind.
TEST(SerializationTest, MlpFailedLoadLeavesNetworkUnchanged) {
  Rng rng(75);
  Mlp mlp;
  mlp.Init({4, 8, 2}, rng);
  std::stringstream before;
  mlp.Save(before);

  Mlp other;
  other.Init({3, 5, 6, 1}, rng);
  std::stringstream stream;
  other.Save(stream);
  const std::string full = stream.str();
  // Drop the last layer's bias value.
  std::istringstream in(full.substr(0, full.size() - sizeof(float)));
  EXPECT_FALSE(mlp.Load(in));
  EXPECT_EQ(mlp.in_dim(), 4);
  EXPECT_EQ(mlp.out_dim(), 2);
  std::stringstream after;
  mlp.Save(after);
  EXPECT_EQ(before.str(), after.str());
}

}  // namespace
}  // namespace stage::nn
