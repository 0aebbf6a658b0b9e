#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stage/common/rng.h"
#include "stage/common/thread_pool.h"
#include "stage/gbt/dataset.h"
#include "stage/gbt/ensemble.h"
#include "stage/gbt/gbdt.h"
#include "stage/gbt/loss.h"
#include "stage/gbt/quantizer.h"
#include "stage/gbt/tree.h"

namespace stage::gbt {
namespace {

Dataset LinearDataset(int n, uint64_t seed, double noise = 0.0) {
  // y = 3*x0 - 2*x1 + 0.5 (+ noise).
  Rng rng(seed);
  Dataset data(3);
  for (int i = 0; i < n; ++i) {
    const float x0 = static_cast<float>(rng.NextUniform(-1, 1));
    const float x1 = static_cast<float>(rng.NextUniform(-1, 1));
    const float x2 = static_cast<float>(rng.NextUniform(-1, 1));  // Irrelevant.
    const double y =
        3.0 * x0 - 2.0 * x1 + 0.5 + rng.NextGaussian(0.0, noise);
    data.AddRow({x0, x1, x2}, y);
  }
  return data;
}

TEST(DatasetTest, StoresRowsAndLabels) {
  Dataset data(2);
  data.AddRow({1.0f, 2.0f}, 3.0);
  data.AddRow({4.0f, 5.0f}, 6.0);
  EXPECT_EQ(data.num_rows(), 2u);
  EXPECT_EQ(data.feature(1, 0), 4.0f);
  EXPECT_EQ(data.label(0), 3.0);
}

TEST(QuantizerTest, FewDistinctValuesGetExactBins) {
  Dataset data(1);
  for (float v : {1.0f, 2.0f, 3.0f, 1.0f, 2.0f}) data.AddRow({v}, 0.0);
  FeatureQuantizer quantizer(data, 256);
  EXPECT_EQ(quantizer.NumBins(0), 3);
  EXPECT_EQ(quantizer.BinOf(0, 1.0f), 0);
  EXPECT_EQ(quantizer.BinOf(0, 2.0f), 1);
  EXPECT_EQ(quantizer.BinOf(0, 3.0f), 2);
  // Values between cuts land with their upper neighbor's bin boundary rule.
  EXPECT_EQ(quantizer.BinOf(0, 1.5f), 1);
  EXPECT_EQ(quantizer.BinOf(0, 99.0f), 2);
}

TEST(QuantizerTest, ManyValuesRespectMaxBins) {
  Rng rng(3);
  Dataset data(1);
  for (int i = 0; i < 10000; ++i) {
    data.AddRow({static_cast<float>(rng.NextGaussian())}, 0.0);
  }
  FeatureQuantizer quantizer(data, 16);
  EXPECT_LE(quantizer.NumBins(0), 16);
  EXPECT_GE(quantizer.NumBins(0), 8);
  // Bins roughly balance the mass.
  std::vector<int> counts(quantizer.NumBins(0), 0);
  for (size_t r = 0; r < data.num_rows(); ++r) {
    ++counts[quantizer.BinOf(0, data.feature(r, 0))];
  }
  for (int c : counts) EXPECT_GT(c, 100);
}

TEST(QuantizerTest, TransformMatchesBinOf) {
  Dataset data(2);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    data.AddRow({static_cast<float>(rng.NextDouble()),
                 static_cast<float>(rng.NextDouble())},
                0.0);
  }
  FeatureQuantizer quantizer(data, 8);
  const std::vector<uint8_t> binned = quantizer.Transform(data);
  for (size_t r = 0; r < data.num_rows(); ++r) {
    for (int f = 0; f < 2; ++f) {
      EXPECT_EQ(binned[r * 2 + f], quantizer.BinOf(f, data.feature(r, f)));
    }
  }
}

TEST(TreeTest, ConstantTreePredictsValue) {
  const RegressionTree tree = RegressionTree::Constant(4.5);
  const float row[1] = {0.0f};
  EXPECT_DOUBLE_EQ(tree.Predict(row), 4.5);
  EXPECT_EQ(tree.num_leaves(), 1);
}

TEST(TreeTest, SplitRoutesRows) {
  RegressionTree tree;
  const int32_t root = tree.AddLeaf(0.0);
  const auto [left, right] = tree.SplitLeaf(root, 0, 1.5f);
  tree.SetLeafValue(left, -1.0);
  tree.SetLeafValue(right, 2.0);
  const float low[1] = {1.0f};
  const float high[1] = {3.0f};
  EXPECT_DOUBLE_EQ(tree.Predict(low), -1.0);
  EXPECT_DOUBLE_EQ(tree.Predict(high), 2.0);
  EXPECT_EQ(tree.num_leaves(), 2);
}

// Numerical gradient check of each loss.
class LossGradientTest : public ::testing::TestWithParam<int> {};

TEST_P(LossGradientTest, GradientMatchesFiniteDifference) {
  std::unique_ptr<Loss> loss;
  switch (GetParam()) {
    case 0: loss = MakeSquaredLoss(); break;
    case 1: loss = MakeAbsoluteLoss(); break;
    default: loss = MakeGaussianNllLoss(); break;
  }
  const int outputs = loss->num_outputs();
  const std::vector<double> labels = {0.7, -1.3, 2.5};
  Rng rng(11);
  std::vector<double> preds(labels.size() * outputs);
  for (double& p : preds) p = rng.NextUniform(-1.0, 1.0);

  std::vector<double> grad;
  std::vector<double> hess;
  const double eps = 1e-5;
  for (int p = 0; p < outputs; ++p) {
    loss->GradHess(labels, preds, p, &grad, &hess);
    for (size_t i = 0; i < labels.size(); ++i) {
      std::vector<double> plus = preds;
      std::vector<double> minus = preds;
      plus[i * outputs + p] += eps;
      minus[i * outputs + p] -= eps;
      const double n = static_cast<double>(labels.size());
      // Eval returns the mean loss; per-example derivative is n * d(mean).
      const double numeric =
          (loss->Eval(labels, plus) - loss->Eval(labels, minus)) / (2 * eps) *
          n;
      EXPECT_NEAR(grad[i], numeric, 1e-4)
          << "loss " << GetParam() << " output " << p << " example " << i;
      EXPECT_GT(hess[i], 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllLosses, LossGradientTest,
                         ::testing::Values(0, 1, 2));

TEST(LossTest, SquaredInitIsMean) {
  const auto loss = MakeSquaredLoss();
  EXPECT_DOUBLE_EQ(loss->InitScores({1.0, 2.0, 6.0})[0], 3.0);
}

TEST(LossTest, AbsoluteInitIsMedian) {
  const auto loss = MakeAbsoluteLoss();
  EXPECT_DOUBLE_EQ(loss->InitScores({1.0, 100.0, 2.0})[0], 2.0);
}

TEST(LossTest, GaussianNllInitMatchesMoments) {
  const auto loss = MakeGaussianNllLoss();
  const std::vector<double> scores = loss->InitScores({1.0, 3.0});
  EXPECT_DOUBLE_EQ(scores[0], 2.0);
  EXPECT_NEAR(std::exp(scores[1]), 1.0, 1e-9);  // Variance of {1,3} is 1.
}

TEST(LossTest, QuantileInitIsEmpiricalQuantile) {
  const auto loss = MakeQuantileLoss(0.9);
  // 0.9-quantile of {0..10} by interpolation: 9.
  std::vector<double> labels;
  for (int i = 0; i <= 10; ++i) labels.push_back(i);
  EXPECT_NEAR(loss->InitScores(labels)[0], 9.0, 1e-9);
}

TEST(GbdtTest, QuantileLossLearnsConditionalQuantile) {
  // y | x ~ LogNormal; the q=0.9 model should sit well above the median
  // model and close to the true 0.9 quantile.
  Rng rng(61);
  Dataset data(1);
  for (int i = 0; i < 6000; ++i) {
    const float x = static_cast<float>(rng.NextDouble());
    data.AddRow({x}, rng.NextLogNormal(0.0, 0.8));
  }
  GbdtConfig config;
  config.num_rounds = 250;
  config.learning_rate = 0.1;
  const auto q90 = MakeQuantileLoss(0.9);
  const auto q50 = MakeQuantileLoss(0.5);
  const GbdtModel high = GbdtModel::Train(data, *q90, config);
  const GbdtModel mid = GbdtModel::Train(data, *q50, config);
  const float row[1] = {0.5f};
  const double p90_true = std::exp(0.8 * 1.2815515655);  // z_{0.9}.
  EXPECT_GT(high.PredictScalar(row), mid.PredictScalar(row));
  EXPECT_NEAR(high.PredictScalar(row), p90_true, p90_true * 0.35);
  EXPECT_NEAR(mid.PredictScalar(row), 1.0, 0.35);
}

TEST(GbdtTest, EmptyDatasetYieldsBaseOnlyModel) {
  Dataset data(2);
  const auto loss = MakeSquaredLoss();
  const GbdtModel model = GbdtModel::Train(data, *loss, GbdtConfig{});
  const float row[2] = {0.0f, 0.0f};
  EXPECT_DOUBLE_EQ(model.PredictScalar(row), 0.0);
  EXPECT_EQ(model.rounds_used(), 0);
}

TEST(GbdtTest, FitsLinearFunction) {
  const Dataset data = LinearDataset(2000, 42);
  GbdtConfig config;
  config.num_rounds = 150;
  config.learning_rate = 0.2;
  const auto loss = MakeSquaredLoss();
  const GbdtModel model = GbdtModel::Train(data, *loss, config);

  Rng rng(7);
  double total_abs = 0.0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i) {
    const float x0 = static_cast<float>(rng.NextUniform(-0.9, 0.9));
    const float x1 = static_cast<float>(rng.NextUniform(-0.9, 0.9));
    const float row[3] = {x0, x1, 0.0f};
    total_abs += std::abs(model.PredictScalar(row) -
                          (3.0 * x0 - 2.0 * x1 + 0.5));
  }
  EXPECT_LT(total_abs / trials, 0.25);
}

TEST(GbdtTest, ConstantLabelsPredictConstant) {
  Dataset data(1);
  for (int i = 0; i < 100; ++i) {
    data.AddRow({static_cast<float>(i)}, 7.0);
  }
  const auto loss = MakeSquaredLoss();
  const GbdtModel model = GbdtModel::Train(data, *loss, GbdtConfig{});
  const float row[1] = {50.0f};
  EXPECT_NEAR(model.PredictScalar(row), 7.0, 1e-6);
}

TEST(GbdtTest, EarlyStoppingLimitsRounds) {
  // Pure-noise labels: validation loss cannot improve for long.
  Rng rng(9);
  Dataset data(2);
  for (int i = 0; i < 500; ++i) {
    data.AddRow({static_cast<float>(rng.NextDouble()),
                 static_cast<float>(rng.NextDouble())},
                rng.NextGaussian());
  }
  GbdtConfig config;
  config.num_rounds = 400;
  config.early_stopping_rounds = 10;
  const auto loss = MakeSquaredLoss();
  const GbdtModel model = GbdtModel::Train(data, *loss, config);
  EXPECT_LT(model.rounds_used(), 200);
}

TEST(GbdtTest, RespectsMaxDepthViaLeafCount) {
  const Dataset data = LinearDataset(500, 1);
  GbdtConfig config;
  config.num_rounds = 5;
  config.max_depth = 2;
  config.early_stopping_rounds = 0;
  const auto loss = MakeSquaredLoss();
  const GbdtModel model = GbdtModel::Train(data, *loss, config);
  EXPECT_EQ(model.rounds_used(), 5);
  // A depth-2 tree has at most 4 leaves; verified indirectly via memory.
  EXPECT_LT(model.MemoryBytes(), 5 * 7 * sizeof(RegressionTree::Node) +
                                     sizeof(double) + 1024);
}

TEST(GbdtTest, GaussianNllLearnsHeteroscedasticVariance) {
  // Variance depends on x: sigma = 0.1 for x<0.5, sigma = 2.0 for x>=0.5.
  Rng rng(21);
  Dataset data(1);
  for (int i = 0; i < 4000; ++i) {
    const float x = static_cast<float>(rng.NextDouble());
    const double sigma = x < 0.5 ? 0.1 : 2.0;
    data.AddRow({x}, rng.NextGaussian(1.0, sigma));
  }
  GbdtConfig config;
  config.num_rounds = 120;
  const auto loss = MakeGaussianNllLoss();
  const GbdtModel model = GbdtModel::Train(data, *loss, config);
  ASSERT_EQ(model.num_outputs(), 2);
  const float low[1] = {0.25f};
  const float high[1] = {0.75f};
  const double var_low = std::exp(model.Predict(low)[1]);
  const double var_high = std::exp(model.Predict(high)[1]);
  EXPECT_LT(var_low, 0.15);
  EXPECT_GT(var_high, 1.5);
  EXPECT_NEAR(model.Predict(low)[0], 1.0, 0.15);
  EXPECT_NEAR(model.Predict(high)[0], 1.0, 0.5);
}

TEST(GbdtTest, AbsoluteLossRobustToOutliers) {
  // 10% wild outliers; median regression should stay near the bulk.
  Rng rng(23);
  Dataset data(1);
  for (int i = 0; i < 2000; ++i) {
    const float x = static_cast<float>(rng.NextDouble());
    double y = 2.0 * x;
    if (rng.NextBernoulli(0.1)) y += 500.0;
    data.AddRow({x}, y);
  }
  GbdtConfig config;
  config.num_rounds = 150;
  const auto mae = MakeAbsoluteLoss();
  const GbdtModel robust = GbdtModel::Train(data, *mae, config);
  const float row[1] = {0.5f};
  EXPECT_NEAR(robust.PredictScalar(row), 1.0, 0.5);
}

TEST(GbdtTest, ColumnSamplingStillLearns) {
  const Dataset data = LinearDataset(1500, 91, 0.05);
  GbdtConfig config;
  config.num_rounds = 120;
  config.colsample = 0.5;  // One random half of the features per round.
  config.learning_rate = 0.2;
  const auto loss = MakeSquaredLoss();
  const GbdtModel model = GbdtModel::Train(data, *loss, config);
  Rng rng(5);
  double total = 0.0;
  for (int i = 0; i < 100; ++i) {
    const float x0 = static_cast<float>(rng.NextUniform(-0.8, 0.8));
    const float x1 = static_cast<float>(rng.NextUniform(-0.8, 0.8));
    const float row[3] = {x0, x1, 0.0f};
    total += std::abs(model.PredictScalar(row) - (3.0 * x0 - 2.0 * x1 + 0.5));
  }
  EXPECT_LT(total / 100.0, 0.6);
}

TEST(GbdtTest, StrongerRegularizationShrinksSteps) {
  // With a huge L2 lambda, leaf values (and thus total movement away from
  // the base score) shrink.
  const Dataset data = LinearDataset(800, 93);
  GbdtConfig weak;
  weak.num_rounds = 20;
  weak.early_stopping_rounds = 0;
  GbdtConfig strong = weak;
  strong.lambda = 1e6;
  const auto loss = MakeSquaredLoss();
  const GbdtModel free_model = GbdtModel::Train(data, *loss, weak);
  const GbdtModel shrunk_model = GbdtModel::Train(data, *loss, strong);
  const float row[3] = {0.8f, -0.8f, 0.0f};
  const double base = 0.5;  // Mean of y over symmetric x is ~0.5.
  EXPECT_LT(std::abs(shrunk_model.PredictScalar(row) - base),
            std::abs(free_model.PredictScalar(row) - base));
}

TEST(EnsembleTest, PredictionDecompositionMatchesEq2) {
  const Dataset data = LinearDataset(800, 3, 0.3);
  EnsembleConfig config;
  config.num_members = 5;
  config.member.num_rounds = 40;
  const BayesianGbtEnsemble ensemble = BayesianGbtEnsemble::Train(data, config);
  ASSERT_EQ(ensemble.num_members(), 5);

  const float row[3] = {0.3f, -0.2f, 0.1f};
  const auto pred = ensemble.Predict(row);

  // Recompute Eq. 1-2 from the members directly.
  std::vector<double> mus;
  double data_var = 0.0;
  for (const GbdtModel& member : ensemble.members()) {
    const auto out = member.Predict(row);
    mus.push_back(out[0]);
    data_var += std::exp(out[1]);
  }
  data_var /= mus.size();
  double mean = 0.0;
  for (double mu : mus) mean += mu;
  mean /= mus.size();
  double model_var = 0.0;
  for (double mu : mus) model_var += (mean - mu) * (mean - mu);
  model_var /= mus.size();

  EXPECT_NEAR(pred.mean, mean, 1e-9);
  EXPECT_NEAR(pred.model_variance, model_var, 1e-9);
  EXPECT_NEAR(pred.data_variance, data_var, 1e-9);
  EXPECT_NEAR(pred.total_variance(), model_var + data_var, 1e-12);
}

TEST(EnsembleTest, ModelUncertaintyHigherOutOfDistribution) {
  const Dataset data = LinearDataset(1500, 5, 0.1);  // x in [-1, 1].
  EnsembleConfig config;
  config.num_members = 8;
  config.member.num_rounds = 60;
  config.member.subsample = 0.6;
  const BayesianGbtEnsemble ensemble = BayesianGbtEnsemble::Train(data, config);

  double in_dist = 0.0;
  double out_dist = 0.0;
  Rng rng(31);
  for (int i = 0; i < 50; ++i) {
    const float in_row[3] = {static_cast<float>(rng.NextUniform(-0.8, 0.8)),
                             static_cast<float>(rng.NextUniform(-0.8, 0.8)),
                             0.0f};
    const float out_row[3] = {static_cast<float>(rng.NextUniform(5.0, 10.0)),
                              static_cast<float>(rng.NextUniform(5.0, 10.0)),
                              0.0f};
    in_dist += ensemble.Predict(in_row).total_variance();
    out_dist += ensemble.Predict(out_row).total_variance();
  }
  // Out-of-distribution rows should carry no less uncertainty on average.
  EXPECT_GE(out_dist, in_dist * 0.9);
}

TEST(EnsembleTest, ParallelAndSerialTrainingAgree) {
  const Dataset data = LinearDataset(500, 77, 0.2);
  EnsembleConfig config;
  config.num_members = 4;
  config.member.num_rounds = 30;
  config.parallel_train = true;
  const BayesianGbtEnsemble parallel = BayesianGbtEnsemble::Train(data, config);
  config.parallel_train = false;
  const BayesianGbtEnsemble serial = BayesianGbtEnsemble::Train(data, config);

  const float row[3] = {0.1f, 0.2f, 0.3f};
  EXPECT_DOUBLE_EQ(parallel.Predict(row).mean, serial.Predict(row).mean);
  EXPECT_DOUBLE_EQ(parallel.Predict(row).total_variance(),
                   serial.Predict(row).total_variance());
}

TEST(GbdtTest, FeatureImportanceFindsInformativeFeatures) {
  // y depends on x0 and x1 only; x2 is noise.
  const Dataset data = LinearDataset(2000, 51, 0.05);
  GbdtConfig config;
  config.num_rounds = 80;
  const auto loss = MakeSquaredLoss();
  const GbdtModel model = GbdtModel::Train(data, *loss, config);
  const std::vector<double> importance = model.FeatureImportance();
  ASSERT_EQ(importance.size(), 3u);
  double total = 0.0;
  for (double v : importance) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Informative features dominate; late rounds fitting residual noise give
  // the junk feature a nonzero share, so require dominance not absence.
  EXPECT_GT(importance[0], importance[2]);
  EXPECT_GT(importance[1], importance[2]);
  EXPECT_GT(importance[0] + importance[1], 0.6);
}

TEST(GbdtTest, ConstantModelHasZeroImportance) {
  Dataset data(2);
  for (int i = 0; i < 50; ++i) data.AddRow({0.0f, 0.0f}, 1.0);
  const auto loss = MakeSquaredLoss();
  const GbdtModel model = GbdtModel::Train(data, *loss, GbdtConfig{});
  for (double v : model.FeatureImportance()) EXPECT_EQ(v, 0.0);
}

TEST(EnsembleTest, FeatureImportanceAveragesMembers) {
  const Dataset data = LinearDataset(800, 53, 0.1);
  EnsembleConfig config;
  config.num_members = 3;
  config.member.num_rounds = 30;
  const BayesianGbtEnsemble ensemble = BayesianGbtEnsemble::Train(data, config);
  const std::vector<double> importance = ensemble.FeatureImportance();
  ASSERT_EQ(importance.size(), 3u);
  EXPECT_GT(importance[0] + importance[1], importance[2]);
}

TEST(SerializationTest, GbdtRoundTripPreservesPredictions) {
  const Dataset data = LinearDataset(800, 11, 0.1);
  GbdtConfig config;
  config.num_rounds = 60;
  const auto loss = MakeGaussianNllLoss();
  const GbdtModel original = GbdtModel::Train(data, *loss, config);

  std::stringstream buffer;
  original.Save(buffer);
  GbdtModel restored;
  ASSERT_TRUE(restored.Load(buffer));
  EXPECT_EQ(restored.num_features(), original.num_features());
  EXPECT_EQ(restored.num_outputs(), original.num_outputs());
  EXPECT_EQ(restored.rounds_used(), original.rounds_used());

  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const float row[3] = {static_cast<float>(rng.NextUniform(-1, 1)),
                          static_cast<float>(rng.NextUniform(-1, 1)),
                          static_cast<float>(rng.NextUniform(-1, 1))};
    const auto a = original.Predict(row);
    const auto b = restored.Predict(row);
    ASSERT_EQ(a.size(), b.size());
    for (size_t p = 0; p < a.size(); ++p) EXPECT_DOUBLE_EQ(a[p], b[p]);
  }
}

TEST(SerializationTest, EnsembleRoundTrip) {
  const Dataset data = LinearDataset(400, 13, 0.2);
  EnsembleConfig config;
  config.num_members = 3;
  config.member.num_rounds = 30;
  const BayesianGbtEnsemble original = BayesianGbtEnsemble::Train(data, config);

  std::stringstream buffer;
  original.Save(buffer);
  BayesianGbtEnsemble restored;
  ASSERT_TRUE(restored.Load(buffer));
  EXPECT_EQ(restored.num_members(), 3);

  const float row[3] = {0.2f, -0.4f, 0.6f};
  EXPECT_DOUBLE_EQ(original.Predict(row).mean, restored.Predict(row).mean);
  EXPECT_DOUBLE_EQ(original.Predict(row).total_variance(),
                   restored.Predict(row).total_variance());
}

// Reference implementation of the pre-FlatForest predict path: base scores
// plus a walk of the canonical node-vector trees in round-major,
// output-interleaved order. FlatForest must match it bit for bit.
std::vector<double> NodeWalkPredict(const GbdtModel& model, const float* row) {
  std::vector<double> out = model.base_scores();
  for (const auto& round : model.trees()) {
    for (size_t j = 0; j < round.size(); ++j) {
      out[j] += round[j].Predict(row);
    }
  }
  return out;
}

TEST(FlatForestTest, GoldenEquivalenceWithNodeWalk) {
  Rng rng(404);
  for (const uint64_t seed : {11u, 12u, 13u}) {
    const Dataset data = LinearDataset(600, seed, 0.3);
    GbdtConfig config;
    config.num_rounds = 40;
    config.max_depth = static_cast<int>(3 + seed % 4);
    config.seed = seed;
    const auto loss = MakeGaussianNllLoss();
    const GbdtModel model = GbdtModel::Train(data, *loss, config);
    ASSERT_FALSE(model.flat().empty());
    EXPECT_EQ(model.flat().num_outputs(), model.num_outputs());
    EXPECT_EQ(model.flat().num_trees(),
              model.trees().size() *
                  static_cast<size_t>(model.num_outputs()));
    for (int i = 0; i < 200; ++i) {
      const float row[3] = {static_cast<float>(rng.NextUniform(-2, 2)),
                            static_cast<float>(rng.NextUniform(-2, 2)),
                            static_cast<float>(rng.NextUniform(-2, 2))};
      const std::vector<double> expected = NodeWalkPredict(model, row);
      const std::vector<double> got = model.Predict(row);
      ASSERT_EQ(expected.size(), got.size());
      for (size_t j = 0; j < expected.size(); ++j) {
        // Exact equality, not near: the flat layout must not change a
        // single result bit.
        EXPECT_EQ(expected[j], got[j]) << "seed " << seed << " output " << j;
      }
      EXPECT_EQ(expected[0], model.PredictScalar(row));
    }
  }
}

TEST(FlatForestTest, NanFeaturesTakeTheRightChildLikeNodeWalk) {
  const Dataset data = LinearDataset(500, 9, 0.1);
  GbdtConfig config;
  config.num_rounds = 30;
  const auto loss = MakeSquaredLoss();
  const GbdtModel model = GbdtModel::Train(data, *loss, config);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float rows[3][3] = {{nan, 0.5f, -0.5f},
                            {0.5f, nan, nan},
                            {nan, nan, nan}};
  for (const auto& row : rows) {
    EXPECT_EQ(NodeWalkPredict(model, row)[0], model.PredictScalar(row));
  }
}

TEST(FlatForestTest, PredictVariantsAgreeBitForBit) {
  const Dataset data = LinearDataset(800, 21, 0.2);
  GbdtConfig config;
  config.num_rounds = 50;
  const auto loss = MakeGaussianNllLoss();
  const GbdtModel model = GbdtModel::Train(data, *loss, config);
  const int num_outputs = model.num_outputs();
  ASSERT_EQ(num_outputs, 2);

  // A few hundred rows, beyond one PredictBatch block, plus a NaN row.
  Rng rng(22);
  const size_t num_rows = 300;
  std::vector<float> rows(num_rows * 3);
  for (float& v : rows) v = static_cast<float>(rng.NextUniform(-2, 2));
  rows[5 * 3 + 1] = std::numeric_limits<float>::quiet_NaN();

  std::vector<double> batch(num_rows * num_outputs);
  model.PredictBatch(rows.data(), num_rows, 3, batch);
  std::vector<double> batch_pooled(num_rows * num_outputs);
  ThreadPool pool(3);
  model.PredictBatch(rows.data(), num_rows, 3, batch_pooled, &pool);

  std::vector<double> into(num_outputs);
  for (size_t r = 0; r < num_rows; ++r) {
    const float* row = rows.data() + r * 3;
    const std::vector<double> reference = model.Predict(row);
    model.PredictInto(row, into);
    for (int j = 0; j < num_outputs; ++j) {
      EXPECT_EQ(reference[j], into[j]) << r;
      EXPECT_EQ(reference[j], batch[r * num_outputs + j]) << r;
      EXPECT_EQ(reference[j], batch_pooled[r * num_outputs + j]) << r;
    }
  }
}

TEST(EnsembleTest, PredictBatchMatchesPerRowBitForBit) {
  const Dataset data = LinearDataset(600, 31, 0.2);
  EnsembleConfig config;
  config.num_members = 3;
  config.member.num_rounds = 25;
  const BayesianGbtEnsemble ensemble = BayesianGbtEnsemble::Train(data, config);

  Rng rng(33);
  const size_t num_rows = 200;
  std::vector<float> rows(num_rows * 3);
  for (float& v : rows) v = static_cast<float>(rng.NextUniform(-2, 2));

  std::vector<BayesianGbtEnsemble::Prediction> batch(num_rows);
  ensemble.PredictBatch(rows.data(), num_rows, 3, batch);
  ThreadPool pool(2);
  std::vector<BayesianGbtEnsemble::Prediction> batch_pooled(num_rows);
  ensemble.PredictBatch(rows.data(), num_rows, 3, batch_pooled, &pool);

  for (size_t r = 0; r < num_rows; ++r) {
    const auto single = ensemble.Predict(rows.data() + r * 3);
    EXPECT_EQ(single.mean, batch[r].mean) << r;
    EXPECT_EQ(single.model_variance, batch[r].model_variance) << r;
    EXPECT_EQ(single.data_variance, batch[r].data_variance) << r;
    EXPECT_EQ(single.mean, batch_pooled[r].mean) << r;
    EXPECT_EQ(single.model_variance, batch_pooled[r].model_variance) << r;
    EXPECT_EQ(single.data_variance, batch_pooled[r].data_variance) << r;
  }
}

// The trained bytes must not depend on how training was scheduled: every
// member derives its own seed and writes its own slot, so any pool width
// (and the serial path) must produce an identical checkpoint.
TEST(EnsembleTest, TrainedBytesIdenticalAcrossPoolWidths) {
  const Dataset data = LinearDataset(500, 61, 0.2);
  EnsembleConfig config;
  config.num_members = 4;
  config.member.num_rounds = 25;

  config.parallel_train = false;
  const BayesianGbtEnsemble serial = BayesianGbtEnsemble::Train(data, config);
  std::stringstream serial_buffer;
  serial.Save(serial_buffer);
  const std::string serial_bytes = serial_buffer.str();

  config.parallel_train = true;
  for (const size_t width : {1u, 2u, 8u}) {
    ThreadPool pool(width);
    const BayesianGbtEnsemble trained =
        BayesianGbtEnsemble::Train(data, config, &pool);
    std::stringstream buffer;
    trained.Save(buffer);
    EXPECT_EQ(buffer.str(), serial_bytes) << "pool width " << width;
  }
}

// The FlatForest is an inference-only companion: compiling it (and running
// predictions through it) must leave the serialized node-vector checkpoint
// byte-for-byte unchanged, and a loaded model must re-save identically.
TEST(SerializationTest, CheckpointBytesUnchangedByFlatCompilation) {
  const Dataset data = LinearDataset(600, 71, 0.1);
  GbdtConfig config;
  config.num_rounds = 40;
  const auto loss = MakeGaussianNllLoss();
  const GbdtModel model = GbdtModel::Train(data, *loss, config);

  std::stringstream first;
  model.Save(first);
  const float row[3] = {0.3f, -0.1f, 0.7f};
  (void)model.Predict(row);
  (void)model.PredictScalar(row);
  std::stringstream second;
  model.Save(second);
  EXPECT_EQ(first.str(), second.str());

  GbdtModel restored;
  std::stringstream reload(first.str());
  ASSERT_TRUE(restored.Load(reload));
  std::stringstream resaved;
  restored.Save(resaved);
  EXPECT_EQ(first.str(), resaved.str());
  // And the loaded model's flat path serves identical predictions.
  EXPECT_EQ(model.PredictScalar(row), restored.PredictScalar(row));
}

TEST(SerializationTest, GbdtRejectsGarbageAndWrongMagic) {
  GbdtModel model;
  std::stringstream garbage("not a model at all, definitely");
  EXPECT_FALSE(model.Load(garbage));
  std::stringstream empty;
  EXPECT_FALSE(model.Load(empty));
}

TEST(SerializationTest, GbdtRejectsTruncatedStream) {
  const Dataset data = LinearDataset(200, 17);
  GbdtConfig config;
  config.num_rounds = 20;
  const auto loss = MakeSquaredLoss();
  const GbdtModel original = GbdtModel::Train(data, *loss, config);
  std::stringstream buffer;
  original.Save(buffer);
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  GbdtModel restored;
  EXPECT_FALSE(restored.Load(truncated));
}

// ---- CRC-valid but malformed streams ------------------------------------
// Each case edits one field of a saved single-output model. A load must
// fail and leave the model it was loading into as it was.

// A saved model and where its fields sit. The stream is the header (magic,
// version), num_features, num_outputs, base_scores (count, then values),
// num_rounds, then each tree's node vector (count, then nodes).
struct SavedModel {
  std::string bytes;
  size_t base_score = 0;   // base_scores[0].
  size_t nodes = 0;        // The first tree's node 0.
  uint64_t num_nodes = 0;  // Nodes in the first tree.

  size_t Field(size_t node, size_t offset) const {
    return nodes + node * sizeof(RegressionTree::Node) + offset;
  }
  template <typename T>
  T Get(size_t at) const {
    T value;
    std::memcpy(&value, bytes.data() + at, sizeof(T));
    return value;
  }
  template <typename T>
  SavedModel With(size_t at, T value) const {
    SavedModel edited = *this;
    std::memcpy(edited.bytes.data() + at, &value, sizeof(T));
    return edited;
  }
};

SavedModel SaveModel() {
  const Dataset data = LinearDataset(300, 23);
  GbdtConfig config;
  config.num_rounds = 5;
  const auto loss = MakeSquaredLoss();
  std::stringstream buffer;
  GbdtModel::Train(data, *loss, config).Save(buffer);
  SavedModel saved;
  saved.bytes = buffer.str();
  saved.base_score = 8 + 4 + 4 + 8;
  saved.nodes = saved.base_score + 8 + 8 + 8;
  saved.num_nodes = saved.Get<uint64_t>(saved.nodes - 8);
  return saved;
}

constexpr size_t kFeature = offsetof(RegressionTree::Node, feature);
constexpr size_t kThreshold = offsetof(RegressionTree::Node, threshold);
constexpr size_t kLeft = offsetof(RegressionTree::Node, left);
constexpr size_t kRight = offsetof(RegressionTree::Node, right);
constexpr size_t kValue = offsetof(RegressionTree::Node, value);

void ExpectRejected(const SavedModel& saved) {
  GbdtConfig config;
  config.num_rounds = 10;
  const GbdtModel target =
      GbdtModel::Train(LinearDataset(100, 5), *MakeSquaredLoss(), config);
  GbdtModel loaded = target;
  std::stringstream in(saved.bytes);
  ASSERT_FALSE(loaded.Load(in));
  const float row[3] = {0.25f, -0.5f, 0.75f};
  EXPECT_EQ(loaded.PredictScalar(row), target.PredictScalar(row));
  EXPECT_EQ(loaded.rounds_used(), target.rounds_used());
}

TEST(SerializationTest, GbdtRejectsSplitFeatureOutsideTheRow) {
  const SavedModel saved = SaveModel();
  ASSERT_GE(saved.Get<int32_t>(saved.Field(0, kLeft)), 0);  // Root splits.
  std::stringstream sane(saved.bytes);
  GbdtModel model;
  ASSERT_TRUE(model.Load(sane));
  // Feature 3 is one past a 3-feature row; 2^20 reads megabytes past it.
  ExpectRejected(saved.With<int32_t>(saved.Field(0, kFeature), 3));
  ExpectRejected(saved.With<int32_t>(saved.Field(0, kFeature), 1 << 20));
}

// A root whose left child is itself loops FlatForest::Compile forever, as
// does any child placed before its split that closes a cycle.
TEST(SerializationTest, GbdtRejectsChildNotPlacedAfterItsSplit) {
  const SavedModel saved = SaveModel();
  ASSERT_GE(saved.Get<int32_t>(saved.Field(0, kLeft)), 0);
  ExpectRejected(saved.With<int32_t>(saved.Field(0, kLeft), 0));
  const int32_t right = saved.Get<int32_t>(saved.Field(0, kRight));
  ASSERT_GE(saved.Get<int32_t>(saved.Field(right, kLeft)), 0)
      << "the root's right child must split too";
  ExpectRejected(saved.With<int32_t>(saved.Field(right, kRight), 0));
}

// Two references to one node turn the tree into a DAG, which Compile would
// unfold node by node (exponentially, in a chain of them).
TEST(SerializationTest, GbdtRejectsNodeThatIsTheChildOfTwoSplits) {
  const SavedModel saved = SaveModel();
  const int32_t left = saved.Get<int32_t>(saved.Field(0, kLeft));
  ASSERT_GE(left, 0);
  ExpectRejected(saved.With<int32_t>(saved.Field(0, kRight), left));
}

TEST(SerializationTest, GbdtRejectsNonFiniteLeafThresholdOrBaseScore) {
  const SavedModel saved = SaveModel();
  size_t leaf = 0;
  while (leaf < saved.num_nodes &&
         saved.Get<int32_t>(saved.Field(leaf, kLeft)) >= 0) {
    ++leaf;
  }
  ASSERT_LT(leaf, saved.num_nodes);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  ExpectRejected(saved.With<double>(saved.Field(leaf, kValue), nan));
  ExpectRejected(saved.With<float>(saved.Field(0, kThreshold), inf));
  ExpectRejected(saved.With<double>(saved.base_score, nan));
}

}  // namespace
}  // namespace stage::gbt
