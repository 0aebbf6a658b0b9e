#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "stage/common/rng.h"
#include "stage/common/serialize.h"
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
  std::vector<std::vector<RegressionTree>> trees;
  const GbdtModel model = GbdtModel::Train(data, *loss, config, &trees);
  EXPECT_EQ(model.rounds_used(), 5);
  ASSERT_EQ(trees.size(), 5u);
  // A depth-2 tree has at most 4 leaves and 7 nodes.
  for (const auto& round : trees) EXPECT_LE(round[0].num_leaves(), 4);
  const size_t num_nodes = model.flat().num_nodes();
  EXPECT_LE(num_nodes, 5u * 7u);
  // The model counts its base score and the flat arrays, nothing else: a
  // root index per tree, and a 12-byte node plus a leaf value per node.
  EXPECT_EQ(model.MemoryBytes(), sizeof(double) + 5 * sizeof(int32_t) +
                                     num_nodes * (12 + sizeof(double)));
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
// plus a walk of the node-vector trees the trainer built, in round-major,
// output-interleaved order. FlatForest must match it bit for bit.
std::vector<double> NodeWalkPredict(
    const GbdtModel& model,
    const std::vector<std::vector<RegressionTree>>& trees, const float* row) {
  std::vector<double> out = model.base_scores();
  for (const auto& round : trees) {
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
    std::vector<std::vector<RegressionTree>> trees;
    const GbdtModel model = GbdtModel::Train(data, *loss, config, &trees);
    ASSERT_FALSE(model.flat().empty());
    EXPECT_EQ(model.flat().num_outputs(), model.num_outputs());
    EXPECT_EQ(model.flat().num_trees(),
              trees.size() * static_cast<size_t>(model.num_outputs()));
    for (int i = 0; i < 200; ++i) {
      const float row[3] = {static_cast<float>(rng.NextUniform(-2, 2)),
                            static_cast<float>(rng.NextUniform(-2, 2)),
                            static_cast<float>(rng.NextUniform(-2, 2))};
      const std::vector<double> expected = NodeWalkPredict(model, trees, row);
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
  std::vector<std::vector<RegressionTree>> trees;
  const GbdtModel model = GbdtModel::Train(data, *loss, config, &trees);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float rows[3][3] = {{nan, 0.5f, -0.5f},
                            {0.5f, nan, nan},
                            {nan, nan, nan}};
  for (const auto& row : rows) {
    EXPECT_EQ(NodeWalkPredict(model, trees, row)[0],
              model.PredictScalar(row));
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

  // A few hundred rows plus a NaN row. Output 0 has 50 trees, so the
  // scalar walk runs full 8-lane groups and a serial tail.
  Rng rng(22);
  const size_t num_rows = 300;
  std::vector<float> rows(num_rows * 3);
  for (float& v : rows) v = static_cast<float>(rng.NextUniform(-2, 2));
  rows[5 * 3 + 1] = std::numeric_limits<float>::quiet_NaN();

  std::vector<double> into(num_outputs);
  for (size_t r = 0; r < num_rows; ++r) {
    const float* row = rows.data() + r * 3;
    const std::vector<double> reference = model.Predict(row);
    model.PredictInto(row, into);
    for (int j = 0; j < num_outputs; ++j) {
      EXPECT_EQ(reference[j], into[j]) << r;
    }
    EXPECT_EQ(reference[0], model.PredictScalar(row)) << r;
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

// The checkpoint is the compiled flat forest itself: predicting through it
// must leave the saved bytes unchanged, and a loaded model, which compiles
// nothing, must hold the same arrays and re-save them byte for byte.
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
  EXPECT_EQ(restored.MemoryBytes(), model.MemoryBytes());
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
// Each case edits a saved model's stream: one field, or a small tree
// appended by hand. A load must fail and leave the model it was loading
// into as it was. Where a case appends a tree, a well-formed twin of it is
// shown to load first, so the one fault is what the load rejects.

constexpr uint32_t kSgbtMagic = 0x53474254;  // "SGBT".

// The 12-byte node record of an SGBT v2 stream: the split feature (-1 on a
// leaf), its threshold, and the left child's index (the right child is
// left + 1).
struct FlatNode {
  int32_t feature;
  float threshold;
  int32_t left;
};
static_assert(sizeof(FlatNode) == 12);

constexpr FlatNode kLeaf{-1, 0.0f, -1};
// A split on feature 0 whose left child is `left`.
constexpr FlatNode Split(int32_t left) { return FlatNode{0, 0.5f, left}; }

// A saved model split into the fields of its SGBT v2 stream: the header
// (magic, version), num_features, then the base scores, tree roots, nodes
// and per-node leaf values, each a count-prefixed vector.
struct FlatStream {
  uint32_t version = 0;
  int32_t num_features = 0;
  std::vector<double> base_scores;
  std::vector<int32_t> roots;
  std::vector<FlatNode> nodes;
  std::vector<double> values;

  static FlatStream Of(const GbdtModel& model) {
    std::stringstream buffer;
    model.Save(buffer);
    FlatStream stream;
    uint32_t magic = 0;
    EXPECT_TRUE(ReadPod(buffer, &magic) && ReadPod(buffer, &stream.version) &&
                ReadPod(buffer, &stream.num_features) &&
                ReadVector(buffer, &stream.base_scores) &&
                ReadVector(buffer, &stream.roots) &&
                ReadVector(buffer, &stream.nodes) &&
                ReadVector(buffer, &stream.values));
    EXPECT_EQ(magic, kSgbtMagic);
    EXPECT_EQ(stream.version, 2u);
    EXPECT_EQ(stream.Bytes(), buffer.str()) << "the fields are the stream";
    return stream;
  }

  std::string Bytes() const {
    std::stringstream out;
    WriteHeader(out, kSgbtMagic, version);
    WritePod(out, num_features);
    WriteVector(out, base_scores);
    WriteVector(out, roots);
    WriteVector(out, nodes);
    WriteVector(out, values);
    return out.str();
  }

  // End of tree t's node range.
  size_t TreeEnd(size_t t) const {
    return t + 1 < roots.size() ? static_cast<size_t>(roots[t + 1])
                                : nodes.size();
  }
  bool IsSplit(size_t node) const { return nodes[node].feature >= 0; }
  // Appends a tree whose left indices count from its own root.
  void AppendTree(const std::vector<FlatNode>& tree) {
    const int32_t root = static_cast<int32_t>(nodes.size());
    roots.push_back(root);
    for (FlatNode node : tree) {
      if (node.feature >= 0) node.left += root;
      nodes.push_back(node);
      values.push_back(0.0);
    }
  }
  // Inserts a leaf before the first tree, where no root reaches it.
  void PrependOrphanLeaf() {
    nodes.insert(nodes.begin(), kLeaf);
    values.insert(values.begin(), 0.0);
    for (int32_t& root : roots) ++root;
    for (FlatNode& node : nodes) {
      if (node.feature >= 0) ++node.left;
    }
  }
};

// A 3-feature single-output model of five depth-6 trees.
FlatStream SavedStream() {
  GbdtConfig config;
  config.num_rounds = 5;
  const FlatStream saved = FlatStream::Of(
      GbdtModel::Train(LinearDataset(300, 23), *MakeSquaredLoss(), config));
  EXPECT_EQ(saved.roots.size(), 5u);
  return saved;
}

bool Loads(const std::string& bytes) {
  GbdtModel model;
  std::stringstream in(bytes);
  return model.Load(in);
}

void ExpectRejected(const std::string& bytes) {
  GbdtConfig config;
  config.num_rounds = 10;
  const GbdtModel target =
      GbdtModel::Train(LinearDataset(100, 5), *MakeSquaredLoss(), config);
  GbdtModel loaded = target;
  std::stringstream in(bytes);
  ASSERT_FALSE(loaded.Load(in));
  const float row[3] = {0.25f, -0.5f, 0.75f};
  EXPECT_EQ(loaded.PredictScalar(row), target.PredictScalar(row));
  EXPECT_EQ(loaded.rounds_used(), target.rounds_used());
  std::stringstream kept;
  loaded.Save(kept);
  std::stringstream original;
  target.Save(original);
  EXPECT_EQ(kept.str(), original.str());
}

void ExpectRejected(const FlatStream& stream) {
  ExpectRejected(stream.Bytes());
}

TEST(SerializationTest, GbdtRejectsSplitFeatureOutsideTheRow) {
  const FlatStream saved = SavedStream();
  ASSERT_TRUE(saved.IsSplit(0));  // The first root splits.
  ASSERT_TRUE(Loads(saved.Bytes()));
  // Feature 3 is one past a 3-feature row; 2^20 reads megabytes past it;
  // -2 is neither a feature nor the leaf marker.
  for (const int32_t feature : {3, 1 << 20, -2}) {
    FlatStream edited = saved;
    edited.nodes[0].feature = feature;
    ExpectRejected(edited);
  }
}

// A root whose left child is itself would loop every descent forever, as
// would any child placed before its split.
TEST(SerializationTest, GbdtRejectsChildNotPlacedAfterItsSplit) {
  const FlatStream saved = SavedStream();
  ASSERT_TRUE(saved.IsSplit(0));
  FlatStream edited = saved;
  edited.nodes[0].left = 0;
  ExpectRejected(edited);
  const size_t split = static_cast<size_t>(saved.nodes[0].left);
  ASSERT_TRUE(saved.IsSplit(split)) << "the root's left child must split";
  edited = saved;
  edited.nodes[split].left = 0;
  ExpectRejected(edited);
  edited.nodes[split].left = static_cast<int32_t>(split);
  ExpectRejected(edited);
  // A two-node tree whose root is its own left child: every other check
  // holds, and a row going left would never leave the root.
  edited = saved;
  edited.AppendTree({Split(1), kLeaf, kLeaf});
  ASSERT_TRUE(Loads(edited.Bytes()));
  edited = saved;
  edited.AppendTree({Split(0), kLeaf});
  ExpectRejected(edited);
}

// Two references to one node turn the tree into a DAG, whose node count no
// longer bounds its walks.
TEST(SerializationTest, GbdtRejectsNodeThatIsTheChildOfTwoSplits) {
  const FlatStream saved = SavedStream();
  // Two splits a < b of the first tree with a's children after b, so that
  // b may point at them and still point forward.
  const size_t end = saved.TreeEnd(0);
  size_t a = 0;
  size_t b = 0;
  for (size_t i = 0; i < end && b == 0; ++i) {
    for (size_t j = i + 1; j < end && b == 0; ++j) {
      if (saved.IsSplit(i) && saved.IsSplit(j) &&
          static_cast<size_t>(saved.nodes[i].left) > j) {
        a = i;
        b = j;
      }
    }
  }
  ASSERT_NE(b, 0u);
  FlatStream edited = saved;
  edited.nodes[b].left = saved.nodes[a].left;
  ExpectRejected(edited);
  // Sharing one child: b's left is a's right.
  edited.nodes[b].left = saved.nodes[a].left + 1;
  ExpectRejected(edited);
  // A tree whose two inner splits share their children, so every node is
  // still reachable.
  edited = saved;
  edited.AppendTree({Split(1), Split(3), Split(5), kLeaf, kLeaf, kLeaf, kLeaf});
  ASSERT_TRUE(Loads(edited.Bytes()));
  edited = saved;
  edited.AppendTree({Split(1), Split(3), Split(3), kLeaf, kLeaf});
  ExpectRejected(edited);
}

TEST(SerializationTest, GbdtRejectsNonFiniteLeafThresholdOrBaseScore) {
  const FlatStream saved = SavedStream();
  size_t leaf = 0;
  while (leaf < saved.nodes.size() && saved.IsSplit(leaf)) ++leaf;
  ASSERT_LT(leaf, saved.nodes.size());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double value : {nan, inf}) {
    FlatStream edited = saved;
    edited.values[leaf] = value;
    ExpectRejected(edited);
  }
  FlatStream edited = saved;
  edited.nodes[0].threshold = std::numeric_limits<float>::infinity();
  ExpectRejected(edited);
  edited = saved;
  edited.base_scores[0] = nan;
  ExpectRejected(edited);
}

// A descent must stay inside its own tree: a child pair that reaches into
// the next tree, or past the last node, is rejected.
TEST(SerializationTest, GbdtRejectsChildOutsideItsTree) {
  const FlatStream saved = SavedStream();
  const size_t end = saved.TreeEnd(0);
  size_t last = end;
  for (size_t i = 0; i < end; ++i) {
    if (saved.IsSplit(i)) last = i;
  }
  ASSERT_LT(last, end);
  // The right child lands on the second tree's root; then both children
  // sit in the second tree.
  for (const size_t left : {end - 1, end}) {
    FlatStream edited = saved;
    edited.nodes[last].left = static_cast<int32_t>(left);
    ExpectRejected(edited);
  }
  // In the last tree: the right child one past the last node, and a left
  // index whose right child overflows int32.
  const size_t final_root = static_cast<size_t>(saved.roots.back());
  ASSERT_TRUE(saved.IsSplit(final_root));
  for (const int32_t left :
       {static_cast<int32_t>(saved.nodes.size() - 1),
        std::numeric_limits<int32_t>::max()}) {
    FlatStream edited = saved;
    edited.nodes[final_root].left = left;
    ExpectRejected(edited);
  }
  // A one-node tree whose split takes the next tree's two nodes as its
  // children: every node is claimed once, but two trees share nodes.
  FlatStream edited = saved;
  edited.AppendTree({Split(1), kLeaf, kLeaf});
  ASSERT_TRUE(Loads(edited.Bytes()));
  edited = saved;
  edited.AppendTree({Split(1)});
  edited.AppendTree({kLeaf, kLeaf});
  ExpectRejected(edited);
}

// Every node of a tree is its root or some split's child.
TEST(SerializationTest, GbdtRejectsUnreachableNodeInsideATree) {
  const FlatStream saved = SavedStream();
  // A split whose children are both leaves becomes a leaf, stranding them.
  size_t split = 0;
  while (split < saved.nodes.size() &&
         !(saved.IsSplit(split) &&
           !saved.IsSplit(static_cast<size_t>(saved.nodes[split].left)) &&
           !saved.IsSplit(static_cast<size_t>(saved.nodes[split].left) + 1))) {
    ++split;
  }
  ASSERT_LT(split, saved.nodes.size());
  FlatStream edited = saved;
  edited.nodes[split].feature = -1;
  ExpectRejected(edited);
  // A stray leaf appended to the last tree's range.
  edited = saved;
  edited.nodes.push_back(FlatNode{-1, 0.0f, -1});
  edited.values.push_back(0.0);
  ExpectRejected(edited);
}

TEST(SerializationTest, GbdtRejectsRootsThatDoNotStartAtZeroOrAscend) {
  const FlatStream saved = SavedStream();
  ASSERT_GE(saved.roots.size(), 3u);
  FlatStream edited = saved;
  edited.roots[0] = 1;
  ExpectRejected(edited);
  // A leaf before the first root, and every tree moved past it. As a tree
  // of its own, the leaf would load.
  edited = saved;
  edited.PrependOrphanLeaf();
  ExpectRejected(edited);
  edited.roots.insert(edited.roots.begin(), 0);
  ASSERT_TRUE(Loads(edited.Bytes()));
  edited = saved;
  edited.roots[1] = edited.roots[0];  // An empty first tree.
  ExpectRejected(edited);
  // An empty tree between two others, and one after the last node, whose
  // root would be read one past the array.
  edited = saved;
  edited.roots.insert(edited.roots.begin() + 1, saved.roots[1]);
  ExpectRejected(edited);
  edited = saved;
  edited.roots.push_back(static_cast<int32_t>(saved.nodes.size()));
  ExpectRejected(edited);
  edited = saved;
  std::swap(edited.roots[1], edited.roots[2]);
  ExpectRejected(edited);
  edited = saved;
  edited.roots[1] = -1;
  ExpectRejected(edited);
  edited = saved;
  edited.roots.back() = static_cast<int32_t>(saved.nodes.size());
  ExpectRejected(edited);
  edited = saved;
  edited.roots.clear();  // Nodes that belong to no tree.
  ExpectRejected(edited);
}

// Tree t adds into output t % num_outputs, so a two-output model holds an
// even number of trees.
TEST(SerializationTest, GbdtRejectsTreeCountNotAMultipleOfTheOutputs) {
  GbdtConfig config;
  config.num_rounds = 5;
  FlatStream saved = FlatStream::Of(GbdtModel::Train(
      LinearDataset(300, 23), *MakeGaussianNllLoss(), config));
  ASSERT_EQ(saved.base_scores.size(), 2u);
  saved.AppendTree({kLeaf});
  ExpectRejected(saved);
  saved.AppendTree({kLeaf});
  EXPECT_TRUE(Loads(saved.Bytes()));
}

TEST(SerializationTest, GbdtRejectsLeafValueArrayOfTheWrongLength) {
  const FlatStream saved = SavedStream();
  FlatStream edited = saved;
  edited.values.pop_back();
  ExpectRejected(edited);
  edited = saved;
  edited.values.push_back(0.0);
  ExpectRejected(edited);
}

// Version 1 streamed each tree as its own vector of 24-byte nodes. A
// well-formed v1 stream of a one-tree model fails cleanly, as does a v2
// body behind a v1 header.
TEST(SerializationTest, GbdtRejectsVersionOneStream) {
  std::stringstream v1;
  WriteHeader(v1, kSgbtMagic, 1);
  WritePod<int32_t>(v1, 3);                    // num_features.
  WritePod<int32_t>(v1, 1);                    // num_outputs.
  WriteVector(v1, std::vector<double>{0.5});   // Base scores.
  WritePod<uint64_t>(v1, 1);                   // Rounds.
  WriteVector(v1, RegressionTree::Constant(2.0).nodes());
  ExpectRejected(v1.str());
  FlatStream relabeled = SavedStream();
  relabeled.version = 1;
  ExpectRejected(relabeled);
}

// GbdtTest.EmptyDatasetYieldsBaseOnlyModel's model has no tree at all: its
// stream carries empty root, node and value arrays, and it must load.
TEST(SerializationTest, GbdtBaseOnlyModelRoundTrips) {
  const Dataset empty(2);
  const GbdtModel model =
      GbdtModel::Train(empty, *MakeSquaredLoss(), GbdtConfig{});
  ASSERT_EQ(model.rounds_used(), 0);
  std::stringstream buffer;
  model.Save(buffer);

  GbdtConfig config;
  config.num_rounds = 10;
  GbdtModel restored =
      GbdtModel::Train(LinearDataset(100, 5), *MakeSquaredLoss(), config);
  ASSERT_TRUE(restored.Load(buffer));
  EXPECT_EQ(restored.num_features(), 2);
  EXPECT_EQ(restored.num_outputs(), 1);
  EXPECT_EQ(restored.rounds_used(), 0);
  EXPECT_EQ(restored.flat().num_nodes(), 0u);
  const float row[2] = {0.0f, 0.0f};
  EXPECT_EQ(restored.PredictScalar(row), model.PredictScalar(row));
  std::stringstream resaved;
  restored.Save(resaved);
  EXPECT_EQ(resaved.str(), buffer.str());
}

}  // namespace
}  // namespace stage::gbt
