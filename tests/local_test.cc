#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stage/common/rng.h"
#include "stage/gbt/dataset.h"
#include "stage/gbt/ensemble.h"
#include "stage/local/local_model.h"
#include "stage/local/training_pool.h"

namespace stage::local {
namespace {

plan::PlanFeatures MakeFeatures(float seed) {
  plan::PlanFeatures features{};
  for (int i = 0; i < plan::kPlanFeatureDim; ++i) {
    features[i] = seed + static_cast<float>(i) * 0.01f;
  }
  return features;
}

TrainingPoolConfig SmallPool(size_t capacity = 10) {
  TrainingPoolConfig config;
  config.capacity = capacity;
  return config;
}

TEST(TrainingPoolTest, AddAndSize) {
  TrainingPool pool(SmallPool());
  pool.Add(MakeFeatures(1), 1.0);
  pool.Add(MakeFeatures(2), 20.0);
  pool.Add(MakeFeatures(3), 100.0);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.bucket_size(0), 1u);  // 1s.
  EXPECT_EQ(pool.bucket_size(1), 1u);  // 20s.
  EXPECT_EQ(pool.bucket_size(2), 1u);  // 100s.
  EXPECT_EQ(pool.total_added(), 3u);
}

TEST(TrainingPoolTest, BucketCapsProtectLongQueries) {
  // Capacity 10 with fractions {0.6, 0.25, 0.15}: short bucket cap is 6.
  TrainingPool pool(SmallPool(10));
  for (int i = 0; i < 50; ++i) pool.Add(MakeFeatures(i), 0.5);
  EXPECT_EQ(pool.bucket_size(0), 6u);
  // Long queries keep their slots despite the short flood.
  pool.Add(MakeFeatures(100), 500.0);
  for (int i = 0; i < 50; ++i) pool.Add(MakeFeatures(i), 0.5);
  EXPECT_EQ(pool.bucket_size(2), 1u);
  EXPECT_EQ(pool.bucket_size(0), 6u);
}

TEST(TrainingPoolTest, EvictionIsOldestFirstWithinBucket) {
  TrainingPool pool(SmallPool(10));  // Short-bucket cap 6.
  for (int i = 0; i < 7; ++i) pool.Add(MakeFeatures(i), 1.0 + i * 0.1);
  // The first observation (exec 1.0) must have been evicted: the dataset
  // labels (log1p) should not contain log1p(1.0).
  const gbt::Dataset data = pool.BuildDataset(/*log_target=*/false);
  for (size_t r = 0; r < data.num_rows(); ++r) {
    EXPECT_NE(data.label(r), 1.0);
  }
  EXPECT_EQ(data.num_rows(), 6u);
}

TEST(TrainingPoolTest, SingleBucketModeUsesFullCapacity) {
  TrainingPoolConfig config = SmallPool(10);
  config.duration_buckets = false;
  TrainingPool pool(config);
  for (int i = 0; i < 50; ++i) pool.Add(MakeFeatures(i), 0.5);
  EXPECT_EQ(pool.size(), 10u);
}

TEST(TrainingPoolTest, UnboundedModeNeverEvicts) {
  TrainingPoolConfig config = SmallPool(10);
  config.unbounded = true;
  TrainingPool pool(config);
  for (int i = 0; i < 100; ++i) pool.Add(MakeFeatures(i), 0.5);
  EXPECT_EQ(pool.size(), 100u);
}

TEST(TrainingPoolTest, DatasetAppliesLogTransform) {
  TrainingPool pool(SmallPool());
  pool.Add(MakeFeatures(1), std::exp(1.0) - 1.0);  // log1p == 1.
  const gbt::Dataset log_data = pool.BuildDataset(true);
  EXPECT_NEAR(log_data.label(0), 1.0, 1e-12);
  const gbt::Dataset raw_data = pool.BuildDataset(false);
  EXPECT_NEAR(raw_data.label(0), std::exp(1.0) - 1.0, 1e-12);
}

LocalModelConfig FastLocalConfig() {
  LocalModelConfig config;
  config.ensemble.num_members = 4;
  config.ensemble.member.num_rounds = 40;
  return config;
}

TEST(LocalModelTest, UntrainedUntilTrainCalled) {
  LocalModel model(FastLocalConfig());
  EXPECT_FALSE(model.trained());
  TrainingPool pool(SmallPool());
  model.Train(pool);  // Empty pool: still untrained.
  EXPECT_FALSE(model.trained());
}

TEST(LocalModelTest, LearnsFeatureDependentTimes) {
  // Two query families: features ~0 -> ~1s, features ~5 -> ~100s.
  Rng rng(3);
  TrainingPoolConfig pool_config;
  pool_config.capacity = 600;
  TrainingPool pool(pool_config);
  for (int i = 0; i < 300; ++i) {
    plan::PlanFeatures fast = MakeFeatures(0.0f);
    fast[0] += static_cast<float>(rng.NextGaussian(0, 0.05));
    pool.Add(fast, rng.NextLogNormal(std::log(1.0), 0.1));
    plan::PlanFeatures slow = MakeFeatures(5.0f);
    slow[0] += static_cast<float>(rng.NextGaussian(0, 0.05));
    pool.Add(slow, rng.NextLogNormal(std::log(100.0), 0.1));
  }
  LocalModel model(FastLocalConfig());
  model.Train(pool);
  ASSERT_TRUE(model.trained());
  EXPECT_EQ(model.trainings(), 1);

  const auto fast_out = model.Predict(MakeFeatures(0.0f));
  const auto slow_out = model.Predict(MakeFeatures(5.0f));
  EXPECT_LT(fast_out.exec_seconds, 3.0);
  EXPECT_GT(slow_out.exec_seconds, 30.0);
}

TEST(LocalModelTest, UncertaintyDecomposition) {
  Rng rng(5);
  TrainingPool pool(SmallPool(200));
  for (int i = 0; i < 200; ++i) {
    pool.Add(MakeFeatures(static_cast<float>(rng.NextDouble())),
             rng.NextLogNormal(0.0, 0.5));
  }
  LocalModel model(FastLocalConfig());
  model.Train(pool);
  const auto out = model.Predict(MakeFeatures(0.5f));
  EXPECT_GE(out.model_variance, 0.0);
  EXPECT_GE(out.data_variance, 0.0);
  EXPECT_NEAR(out.total_variance(), out.model_variance + out.data_variance,
              1e-12);
  EXPECT_NEAR(out.log_std(), std::sqrt(out.total_variance()), 1e-12);
}

TEST(LocalModelTest, HigherUncertaintyOffDistribution) {
  Rng rng(7);
  TrainingPool pool(SmallPool(400));
  for (int i = 0; i < 400; ++i) {
    plan::PlanFeatures features = MakeFeatures(0.0f);
    features[0] = static_cast<float>(rng.NextUniform(0.0, 1.0));
    pool.Add(features, rng.NextLogNormal(0.0, 0.2));
  }
  LocalModelConfig config = FastLocalConfig();
  config.ensemble.num_members = 8;
  config.ensemble.member.subsample = 0.6;
  LocalModel model(config);
  model.Train(pool);

  double in_dist = 0.0;
  double out_dist = 0.0;
  for (int i = 0; i < 20; ++i) {
    plan::PlanFeatures in_features = MakeFeatures(0.0f);
    in_features[0] = static_cast<float>(rng.NextUniform(0.2, 0.8));
    in_dist += model.Predict(in_features).total_variance();
    plan::PlanFeatures out_features = MakeFeatures(40.0f);
    out_dist += model.Predict(out_features).total_variance();
  }
  EXPECT_GE(out_dist, in_dist * 0.8);
}

TEST(LocalModelTest, ConfidenceIntervalBracketsPointPrediction) {
  Rng rng(13);
  TrainingPool pool(SmallPool(300));
  for (int i = 0; i < 300; ++i) {
    pool.Add(MakeFeatures(static_cast<float>(rng.NextDouble())),
             rng.NextLogNormal(1.0, 0.5));
  }
  LocalModel model(FastLocalConfig());
  model.Train(pool);
  const auto out = model.Predict(MakeFeatures(0.5f));
  const auto narrow = out.ConfidenceInterval(0.5);
  const auto wide = out.ConfidenceInterval(0.95);
  EXPECT_LE(narrow.lo_seconds, out.exec_seconds);
  EXPECT_GE(narrow.hi_seconds, out.exec_seconds);
  // Wider confidence => wider interval.
  EXPECT_LE(wide.lo_seconds, narrow.lo_seconds);
  EXPECT_GE(wide.hi_seconds, narrow.hi_seconds);
  EXPECT_GE(wide.lo_seconds, 0.0);
}

TEST(LocalModelTest, ConfidenceIntervalRoughlyCalibrated) {
  // Labels are log-normal around a feature-independent mean; a 90%
  // interval should cover roughly 90% of fresh draws (within slack).
  Rng rng(17);
  TrainingPool pool(SmallPool(1500));
  for (int i = 0; i < 1500; ++i) {
    pool.Add(MakeFeatures(static_cast<float>(rng.NextDouble())),
             rng.NextLogNormal(std::log(5.0), 0.6));
  }
  LocalModelConfig config = FastLocalConfig();
  config.ensemble.member.num_rounds = 60;
  LocalModel model(config);
  model.Train(pool);

  int covered = 0;
  const int trials = 600;
  for (int i = 0; i < trials; ++i) {
    const auto out =
        model.Predict(MakeFeatures(static_cast<float>(rng.NextDouble())));
    const auto interval = out.ConfidenceInterval(0.9);
    const double fresh = rng.NextLogNormal(std::log(5.0), 0.6);
    covered += fresh >= interval.lo_seconds && fresh <= interval.hi_seconds;
  }
  const double coverage = static_cast<double>(covered) / trials;
  EXPECT_GT(coverage, 0.75);
  EXPECT_LT(coverage, 0.99);
}

TEST(LocalModelTest, PredictionsAreNonNegative) {
  Rng rng(9);
  TrainingPool pool(SmallPool(100));
  for (int i = 0; i < 100; ++i) {
    pool.Add(MakeFeatures(static_cast<float>(rng.NextDouble())), 0.001);
  }
  LocalModel model(FastLocalConfig());
  model.Train(pool);
  for (int i = 0; i < 20; ++i) {
    const auto out =
        model.Predict(MakeFeatures(static_cast<float>(rng.NextDouble() * 10)));
    EXPECT_GE(out.exec_seconds, 0.0);
  }
}

TEST(LocalModelTest, SaveLoadRoundTrip) {
  Rng rng(23);
  TrainingPool pool(SmallPool(200));
  for (int i = 0; i < 200; ++i) {
    pool.Add(MakeFeatures(static_cast<float>(rng.NextDouble())),
             rng.NextLogNormal(0.5, 0.4));
  }
  LocalModel original(FastLocalConfig());
  original.Train(pool);

  std::stringstream buffer;
  original.Save(buffer);
  LocalModel restored(FastLocalConfig());
  ASSERT_TRUE(restored.Load(buffer));
  EXPECT_TRUE(restored.trained());

  for (int i = 0; i < 20; ++i) {
    const auto features =
        MakeFeatures(static_cast<float>(rng.NextDouble() * 3));
    const auto a = original.Predict(features);
    const auto b = restored.Predict(features);
    EXPECT_DOUBLE_EQ(a.exec_seconds, b.exec_seconds);
    EXPECT_DOUBLE_EQ(a.total_variance(), b.total_variance());
  }
}

// Regression for the v1 checkpoint bug: Save/Load dropped the MAE ensemble
// member entirely, so a restored model silently predicted without it (or,
// worse, blended a default-constructed GbdtModel). v2 persists the member;
// a restored model must predict bit-for-bit like the original. This test
// fails against the v1 serializer.
TEST(LocalModelTest, SaveLoadPreservesMaeMember) {
  Rng rng(29);
  TrainingPool pool(SmallPool(200));
  for (int i = 0; i < 200; ++i) {
    pool.Add(MakeFeatures(static_cast<float>(rng.NextDouble() * 2)),
             rng.NextLogNormal(0.5, 0.6));
  }
  LocalModelConfig config = FastLocalConfig();
  config.include_mae_member = true;
  config.mae_member_weight = 0.5;
  LocalModel original(config);
  original.Train(pool);
  ASSERT_TRUE(original.trained());

  std::stringstream buffer;
  original.Save(buffer);
  // Restore into a model whose config has the member OFF: the checkpoint
  // must carry the member (and its blend weight), not the target's config.
  LocalModel restored(FastLocalConfig());
  ASSERT_TRUE(restored.Load(buffer));
  ASSERT_TRUE(restored.trained());

  for (int i = 0; i < 30; ++i) {
    const auto features =
        MakeFeatures(static_cast<float>(rng.NextDouble() * 2));
    const auto a = original.Predict(features);
    const auto b = restored.Predict(features);
    EXPECT_DOUBLE_EQ(a.exec_seconds, b.exec_seconds);
    EXPECT_DOUBLE_EQ(a.total_variance(), b.total_variance());
  }
}

// The MAE member is a whole GbdtModel, so it counts toward the model's
// bytes, which feed the fleet's resident budget and Fig. 9. Both models
// below train the same NLL ensemble on the same pool, so the member is the
// difference; a restored model counts it too.
TEST(LocalModelTest, MemoryBytesCountsTheMaeMember) {
  Rng rng(37);
  TrainingPool pool(SmallPool(200));
  for (int i = 0; i < 200; ++i) {
    pool.Add(MakeFeatures(static_cast<float>(rng.NextDouble() * 2)),
             rng.NextLogNormal(0.5, 0.6));
  }
  LocalModel without(FastLocalConfig());
  without.Train(pool);
  LocalModelConfig config = FastLocalConfig();
  config.include_mae_member = true;
  LocalModel with(config);
  with.Train(pool);
  EXPECT_GT(with.MemoryBytes(), without.MemoryBytes());

  std::stringstream buffer;
  with.Save(buffer);
  LocalModel restored(FastLocalConfig());
  ASSERT_TRUE(restored.Load(buffer));
  EXPECT_EQ(restored.MemoryBytes(), with.MemoryBytes());
}

// Every version-1 local-model stream ever written holds SGBT v1 members,
// which GbdtModel::Load rejects, so the loader reads version 2 only. A v1
// stream is reconstructed from a v2 no-member save (patch the version word
// and drop the two v2-only fields: include_mae u8 at offset 9, blend
// weight f64 at offsets 10-17); it fails to load, as does the v2 body under
// a v1 version word, and the target stays untrained.
TEST(LocalModelTest, LoadRejectsVersion1Streams) {
  Rng rng(31);
  TrainingPool pool(SmallPool(200));
  for (int i = 0; i < 200; ++i) {
    pool.Add(MakeFeatures(static_cast<float>(rng.NextDouble() * 2)),
             rng.NextLogNormal(0.3, 0.5));
  }
  LocalModel original(FastLocalConfig());  // include_mae_member off.
  original.Train(pool);

  std::stringstream buffer;
  original.Save(buffer);
  std::string relabeled = buffer.str();
  ASSERT_GT(relabeled.size(), 18u);
  const uint32_t v1_version = 1;
  std::memcpy(relabeled.data() + 4, &v1_version, sizeof(v1_version));
  const std::string v1 = relabeled.substr(0, 9) + relabeled.substr(18);

  for (const std::string& stream : {v1, relabeled}) {
    LocalModel restored(FastLocalConfig());
    std::istringstream in(stream);
    EXPECT_FALSE(restored.Load(in));
    EXPECT_FALSE(restored.trained());
  }
}

// Every predict hands the members one kPlanFeatureDim row, so a stream
// whose ensemble was trained on another width is rejected, and the model
// it was loading into keeps serving its own predictions.
TEST(LocalModelTest, LoadRejectsMembersOfAnotherFeatureWidth) {
  Rng rng(41);
  TrainingPool pool(SmallPool(200));
  for (int i = 0; i < 200; ++i) {
    pool.Add(MakeFeatures(static_cast<float>(rng.NextDouble() * 2)),
             rng.NextLogNormal(0.3, 0.5));
  }
  LocalModel model(FastLocalConfig());  // include_mae_member off.
  model.Train(pool);
  std::stringstream buffer;
  model.Save(buffer);

  gbt::Dataset narrow(3);
  for (int i = 0; i < 100; ++i) {
    const float x = static_cast<float>(rng.NextDouble());
    narrow.AddRow({x, 1.0f - x, 0.5f}, x);
  }
  gbt::EnsembleConfig config;
  config.num_members = 2;
  config.member.num_rounds = 5;
  std::stringstream ensemble;
  gbt::BayesianGbtEnsemble::Train(narrow, config).Save(ensemble);
  // The header, log_target, include_mae and the blend weight, then the
  // narrow ensemble in place of the trained one.
  std::istringstream in(buffer.str().substr(0, 18) + ensemble.str());

  const auto features = MakeFeatures(0.7f);
  const double before = model.Predict(features).exec_seconds;
  ASSERT_FALSE(model.Load(in));
  EXPECT_TRUE(model.trained());
  EXPECT_EQ(model.Predict(features).exec_seconds, before);
}

}  // namespace
}  // namespace stage::local
