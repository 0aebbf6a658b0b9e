#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include <sstream>

#include "stage/common/flags.h"
#include "stage/common/thread_pool.h"
#include "stage/common/serialize.h"
#include "stage/common/rng.h"
#include "stage/common/stats.h"

namespace stage {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += a.NextUint64() == b.NextUint64() ? 1 : 0;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(7);
  bool saw_zero = false;
  bool saw_max = false;
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = rng.NextBelow(7);
    EXPECT_LT(v, 7u);
    saw_zero = saw_zero || v == 0;
    saw_max = saw_max || v == 6;
  }
  EXPECT_TRUE(saw_zero);
  EXPECT_TRUE(saw_max);
}

TEST(RngTest, GaussianMomentsRoughlyCorrect) {
  Rng rng(11);
  Welford stats;
  for (int i = 0; i < 100000; ++i) stats.Add(rng.NextGaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.variance(), 1.0, 0.03);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(13);
  Welford stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.NextExponential(2.0));
  EXPECT_NEAR(stats.mean(), 0.5, 0.02);
}

TEST(RngTest, PoissonMeanMatchesLambdaSmallAndLarge) {
  Rng rng(17);
  for (double lambda : {0.5, 3.0, 50.0}) {
    Welford stats;
    for (int i = 0; i < 20000; ++i) stats.Add(rng.NextPoisson(lambda));
    EXPECT_NEAR(stats.mean(), lambda, lambda * 0.1 + 0.05) << lambda;
  }
}

TEST(RngTest, PoissonZeroLambda) {
  Rng rng(17);
  EXPECT_EQ(rng.NextPoisson(0.0), 0);
}

TEST(RngTest, WeightedSamplingFollowsWeights) {
  Rng rng(19);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 40000; ++i) ++counts[rng.NextWeighted(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.25);
}

TEST(RngTest, LogNormalMedianIsExpMu) {
  Rng rng(23);
  std::vector<double> values;
  for (int i = 0; i < 20001; ++i) values.push_back(rng.NextLogNormal(1.0, 0.5));
  EXPECT_NEAR(Quantile(values, 0.5), std::exp(1.0), 0.1);
}

TEST(RngTest, ParetoRespectsScale) {
  Rng rng(29);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.NextPareto(2.0, 1.5), 2.0);
  }
}

TEST(RngTest, PermutationIsAPermutation) {
  Rng rng(31);
  const std::vector<size_t> perm = rng.Permutation(100);
  std::vector<bool> seen(100, false);
  for (size_t v : perm) {
    ASSERT_LT(v, 100u);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(WelfordTest, EmptyAndSingle) {
  Welford stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
  stats.Add(5.0);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_EQ(stats.mean(), 5.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

// Property: Welford must match the two-pass mean/variance on arbitrary data.
class WelfordPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WelfordPropertyTest, MatchesTwoPassMoments) {
  Rng rng(GetParam());
  const int n = 2 + static_cast<int>(rng.NextBelow(500));
  std::vector<double> values;
  Welford stats;
  for (int i = 0; i < n; ++i) {
    // Mix scales to stress numerical stability.
    const double v = rng.NextGaussian(1e3, 1.0) +
                     (rng.NextBernoulli(0.3) ? rng.NextLogNormal(0, 2) : 0.0);
    values.push_back(v);
    stats.Add(v);
  }
  double mean = 0.0;
  for (double v : values) mean += v;
  mean /= n;
  double var = 0.0;
  for (double v : values) var += (v - mean) * (v - mean);
  var /= n;
  EXPECT_NEAR(stats.mean(), mean, 1e-9 * std::abs(mean) + 1e-9);
  EXPECT_NEAR(stats.variance(), var, 1e-6 * (var + 1.0));
  EXPECT_EQ(stats.count(), static_cast<size_t>(n));
}

INSTANTIATE_TEST_SUITE_P(Seeds, WelfordPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(QuantileTest, ExactOnKnownData) {
  const std::vector<double> values = {4.0, 1.0, 3.0, 2.0, 5.0};
  EXPECT_DOUBLE_EQ(Quantile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 0.25), 2.0);
}

TEST(QuantileTest, InterpolatesBetweenOrderStatistics) {
  const std::vector<double> values = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(Quantile(values, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 0.9), 9.0);
}

TEST(QuantileTest, SingleElement) {
  EXPECT_DOUBLE_EQ(Quantile({7.0}, 0.3), 7.0);
}

TEST(MeanTest, Basic) {
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(NormalQuantileTest, KnownValues) {
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(NormalQuantile(0.975), 1.959963985, 1e-6);
  EXPECT_NEAR(NormalQuantile(0.025), -1.959963985, 1e-6);
  EXPECT_NEAR(NormalQuantile(0.8413447461), 1.0, 1e-6);
  EXPECT_NEAR(NormalQuantile(0.999), 3.090232306, 1e-6);
  EXPECT_NEAR(NormalQuantile(0.001), -3.090232306, 1e-6);
}

TEST(NormalQuantileTest, SymmetricAndMonotone) {
  double prev = NormalQuantile(0.01);
  for (double p = 0.02; p < 1.0; p += 0.01) {
    const double q = NormalQuantile(p);
    EXPECT_GT(q, prev);
    EXPECT_NEAR(q, -NormalQuantile(1.0 - p), 1e-8);
    prev = q;
  }
}

TEST(NormalQuantileTest, RoundTripsEmpiricalGaussian) {
  // ~84.13% of standard normal draws fall below NormalQuantile(0.8413).
  Rng rng(41);
  int below = 0;
  const int n = 200000;
  const double threshold = NormalQuantile(0.8413447461);
  for (int i = 0; i < n; ++i) {
    below += rng.NextGaussian() < threshold ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(below) / n, 0.8413, 0.01);
}

TEST(FlagsTest, ParsesPositionalAndKeyValue) {
  const char* argv[] = {"prog", "replay", "--instances=4", "--csv",
                        "--utilization=0.5"};
  Flags flags;
  std::string error;
  ASSERT_TRUE(Flags::Parse(5, argv, {"instances", "csv", "utilization"},
                           &flags, &error));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "replay");
  EXPECT_EQ(flags.GetInt("instances", 0), 4);
  EXPECT_TRUE(flags.GetBool("csv", false));
  EXPECT_DOUBLE_EQ(flags.GetDouble("utilization", 0.0), 0.5);
  EXPECT_EQ(flags.GetString("missing", "fallback"), "fallback");
  EXPECT_FALSE(flags.Has("missing"));
}

TEST(FlagsTest, RejectsUnknownFlag) {
  const char* argv[] = {"prog", "--tyop=1"};
  Flags flags;
  std::string error;
  EXPECT_FALSE(Flags::Parse(2, argv, {"typo"}, &flags, &error));
  EXPECT_NE(error.find("tyop"), std::string::npos);
}

TEST(FlagsTest, ExplicitFalseSwitch) {
  const char* argv[] = {"prog", "--csv=false"};
  Flags flags;
  std::string error;
  ASSERT_TRUE(Flags::Parse(2, argv, {"csv"}, &flags, &error));
  EXPECT_FALSE(flags.GetBool("csv", true));
}

TEST(SerializeTest, PodAndVectorRoundTrip) {
  std::stringstream buffer;
  WritePod<int32_t>(buffer, -42);
  WritePod<double>(buffer, 3.5);
  WriteVector<float>(buffer, {1.0f, 2.0f, 3.0f});
  WriteVector<float>(buffer, {});

  int32_t i = 0;
  double d = 0;
  std::vector<float> v;
  std::vector<float> empty;
  ASSERT_TRUE(ReadPod(buffer, &i));
  ASSERT_TRUE(ReadPod(buffer, &d));
  ASSERT_TRUE(ReadVector(buffer, &v));
  ASSERT_TRUE(ReadVector(buffer, &empty));
  EXPECT_EQ(i, -42);
  EXPECT_DOUBLE_EQ(d, 3.5);
  EXPECT_EQ(v, (std::vector<float>{1.0f, 2.0f, 3.0f}));
  EXPECT_TRUE(empty.empty());
}

TEST(SerializeTest, ReadVectorRejectsHugeSizes) {
  std::stringstream buffer;
  WritePod<uint64_t>(buffer, 1ull << 62);  // Absurd element count.
  std::vector<float> v;
  EXPECT_FALSE(ReadVector(buffer, &v));
}

// Regression: a corrupt size field that passes the max_elements cap but
// exceeds the actual stream length must fail before resize — the old code
// attempted a multi-GB allocation and only errored after the short read.
TEST(SerializeTest, ReadVectorRejectsSizeBeyondStreamLength) {
  std::stringstream buffer;
  WritePod<uint64_t>(buffer, 1ull << 28);  // Claims 256M doubles (2 GiB)...
  WritePod<double>(buffer, 1.0);           // ...but only 8 bytes follow.
  std::vector<double> v;
  EXPECT_FALSE(ReadVector(buffer, &v));
  EXPECT_TRUE(v.empty());  // No resize happened.
}

TEST(SerializeTest, RemainingBytesProbesSeekableStreams) {
  std::stringstream buffer("abcdef");
  const auto remaining = RemainingBytes(buffer);
  ASSERT_TRUE(remaining.has_value());
  EXPECT_EQ(*remaining, 6u);
  char c = 0;
  buffer.read(&c, 1);
  EXPECT_EQ(RemainingBytes(buffer).value_or(0), 5u);
}

TEST(WelfordTest, SaveLoadContinuesBitForBit) {
  Welford original;
  Rng rng(13);
  for (int i = 0; i < 100; ++i) original.Add(rng.NextLogNormal(0.0, 1.0));

  std::stringstream buffer;
  original.Save(buffer);
  Welford restored;
  ASSERT_TRUE(restored.Load(buffer));
  EXPECT_EQ(restored.count(), original.count());
  EXPECT_DOUBLE_EQ(restored.mean(), original.mean());
  EXPECT_DOUBLE_EQ(restored.variance(), original.variance());

  // Continued additions stay in lockstep with the never-snapshotted stats.
  for (int i = 0; i < 50; ++i) {
    const double value = rng.NextLogNormal(0.0, 1.0);
    original.Add(value);
    restored.Add(value);
    EXPECT_DOUBLE_EQ(restored.mean(), original.mean());
    EXPECT_DOUBLE_EQ(restored.variance(), original.variance());
  }
}

TEST(WelfordTest, LoadRejectsTruncatedOrMalformedState) {
  Welford original;
  original.Add(1.0);
  original.Add(2.0);
  std::stringstream buffer;
  original.Save(buffer);
  const std::string bytes = buffer.str();

  Welford target;
  std::istringstream truncated(bytes.substr(0, bytes.size() / 2));
  EXPECT_FALSE(target.Load(truncated));
  std::istringstream empty("");
  EXPECT_FALSE(target.Load(empty));
}

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(1000);
  pool.ParallelFor(counts.size(),
                   [&](size_t i) { counts[i].fetch_add(1); });
  for (const auto& count : counts) EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, ParallelForHandlesDegenerateSizes) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  pool.ParallelFor(1, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 1);
  // A zero-worker pool degrades to an inline loop.
  ThreadPool inline_pool(0);
  inline_pool.ParallelFor(10, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 11);
}

// The caller participates in the work, so a ParallelFor issued from inside
// a pool task completes even with every worker occupied. A per-helper
// completion design would deadlock here; per-item tracking must not.
TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(8, [&](size_t) {
    pool.ParallelFor(8, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolTest, DestructorDrainsSubmittedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      pool.Submit([&] { ran.fetch_add(1); });
    }
  }
  EXPECT_EQ(ran.load(), 32);
}

TEST(SerializeTest, HeaderMismatchDetected) {
  std::stringstream buffer;
  WriteHeader(buffer, 0x1234, 1);
  EXPECT_FALSE(ReadHeader(buffer, 0x1234, 2));  // Wrong version.
  std::stringstream buffer2;
  WriteHeader(buffer2, 0x1234, 1);
  EXPECT_FALSE(ReadHeader(buffer2, 0x9999, 1));  // Wrong magic.
  std::stringstream buffer3;
  WriteHeader(buffer3, 0x1234, 1);
  EXPECT_TRUE(ReadHeader(buffer3, 0x1234, 1));
}

}  // namespace
}  // namespace stage
