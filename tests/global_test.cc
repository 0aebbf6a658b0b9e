#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "stage/common/rng.h"
#include "stage/common/serialize.h"
#include "stage/fleet/fleet.h"
#include "stage/global/global_model.h"
#include "stage/metrics/error_metrics.h"
#include "stage/nn/mlp.h"
#include "stage/nn/tree_gcn.h"
#include "stage/plan/featurizer.h"

namespace stage::global {
namespace {

fleet::FleetConfig SmallFleet() {
  fleet::FleetConfig config;
  config.num_instances = 5;
  config.workload.num_queries = 250;
  config.seed = 7;
  return config;
}

GlobalModelConfig FastConfig() {
  GlobalModelConfig config;
  config.hidden_dim = 24;
  config.num_layers = 2;
  config.head_hidden = {24};
  config.epochs = 4;
  return config;
}

TEST(SystemFeaturesTest, LayoutAndObservablesOnly) {
  fleet::FleetGenerator generator(SmallFleet());
  const fleet::InstanceConfig instance = generator.MakeInstance(0);
  plan::PlanNode node;
  node.op = plan::OperatorType::kSeqScanLocal;
  node.estimated_cost = 5.0;
  node.estimated_cardinality = 10.0;
  const plan::Plan plan(plan::QueryType::kSelect, {node});

  const std::vector<float> features = SystemFeatures(instance, plan, 3);
  ASSERT_EQ(features.size(), static_cast<size_t>(kSystemFeatureDim));
  // Node-type one-hot sums to exactly 1.
  float onehot = 0.0f;
  const int type_slots = static_cast<int>(fleet::NodeType::kNumNodeTypes);
  for (int i = 0; i < type_slots; ++i) onehot += features[i];
  EXPECT_EQ(onehot, 1.0f);
  EXPECT_FLOAT_EQ(features[type_slots],
                  std::log1p(static_cast<float>(instance.num_nodes)));
  EXPECT_FLOAT_EQ(features[type_slots + 2], std::log1p(3.0f));

  // The latent speed factor must NOT leak: two instances differing only in
  // hidden parameters produce identical system features.
  fleet::InstanceConfig shadow = instance;
  shadow.latent_speed_factor *= 10.0;
  shadow.noise_sigma = 0.9;
  EXPECT_EQ(SystemFeatures(shadow, plan, 3), features);
}

TEST(GlobalExampleTest, TargetIsLogSpace) {
  fleet::FleetGenerator generator(SmallFleet());
  const fleet::InstanceConfig instance = generator.MakeInstance(0);
  plan::PlanNode node;
  node.op = plan::OperatorType::kSeqScanLocal;
  const plan::Plan plan(plan::QueryType::kSelect, {node});
  const GlobalExample example = MakeGlobalExample(plan, instance, 0, 10.0);
  EXPECT_NEAR(example.target, std::log1p(10.0), 1e-12);
  EXPECT_EQ(example.children.size(), 1u);
  EXPECT_EQ(example.node_features.size(),
            static_cast<size_t>(plan::kNodeFeatureDim));
}

TEST(GlobalModelTest, TrainsAndPredictsFinitePositive) {
  fleet::FleetGenerator generator(SmallFleet());
  const auto fleet = generator.GenerateFleet();
  std::vector<GlobalExample> examples;
  for (int i = 0; i < 3; ++i) {
    for (const auto& event : fleet[i].trace) {
      examples.push_back(MakeGlobalExample(event.plan, fleet[i].config,
                                           event.concurrent_queries,
                                           event.exec_seconds));
    }
  }
  double val_mae = -1.0;
  const GlobalModel model = GlobalModel::Train(examples, FastConfig(), &val_mae);
  EXPECT_TRUE(model.trained());
  EXPECT_GE(val_mae, 0.0);

  for (const auto& event : fleet[4].trace) {
    const double prediction = model.PredictSeconds(
        event.plan, fleet[4].config, event.concurrent_queries);
    EXPECT_TRUE(std::isfinite(prediction));
    EXPECT_GE(prediction, 0.0);
  }
}

TEST(GlobalModelTest, ZeroShotBeatsConstantBaseline) {
  // Train on 6 instances, evaluate pooled over 4 unseen ones: the
  // transferable model must beat predicting a constant (the paper's
  // zero-shot premise). Pooling matters: any single instance's hidden
  // latent factor makes a one-instance comparison a coin flip.
  fleet::FleetConfig config = SmallFleet();
  config.num_instances = 10;
  config.workload.num_queries = 400;
  fleet::FleetGenerator generator(config);
  const auto fleet = generator.GenerateFleet();

  std::vector<GlobalExample> examples;
  for (int i = 0; i < 6; ++i) {
    for (const auto& event : fleet[i].trace) {
      examples.push_back(MakeGlobalExample(event.plan, fleet[i].config,
                                           event.concurrent_queries,
                                           event.exec_seconds));
    }
  }
  GlobalModelConfig model_config = FastConfig();
  model_config.epochs = 8;
  const GlobalModel model = GlobalModel::Train(examples, model_config);

  std::vector<double> actual;
  std::vector<double> predicted;
  for (size_t held_out = 6; held_out < fleet.size(); ++held_out) {
    for (const auto& event : fleet[held_out].trace) {
      actual.push_back(event.exec_seconds);
      predicted.push_back(model.PredictSeconds(
          event.plan, fleet[held_out].config, event.concurrent_queries));
    }
  }
  const std::vector<double> constant(actual.size(), 1.0);
  const double model_q50 =
      metrics::Summarize(metrics::QErrors(actual, predicted)).p50;
  const double const_q50 =
      metrics::Summarize(metrics::QErrors(actual, constant)).p50;
  EXPECT_LT(model_q50, const_q50);
}

TEST(GlobalModelTest, MoreEpochsReduceValidationError) {
  fleet::FleetGenerator generator(SmallFleet());
  const auto fleet = generator.GenerateFleet();
  std::vector<GlobalExample> examples;
  for (int i = 0; i < 4; ++i) {
    for (const auto& event : fleet[i].trace) {
      examples.push_back(MakeGlobalExample(event.plan, fleet[i].config,
                                           event.concurrent_queries,
                                           event.exec_seconds));
    }
  }
  GlobalModelConfig short_config = FastConfig();
  short_config.epochs = 1;
  GlobalModelConfig long_config = FastConfig();
  long_config.epochs = 8;
  double short_mae = 0.0;
  double long_mae = 0.0;
  GlobalModel::Train(examples, short_config, &short_mae);
  GlobalModel::Train(examples, long_config, &long_mae);
  EXPECT_LT(long_mae, short_mae * 1.05);  // Usually strictly better.
}

TEST(GlobalModelTest, PredictFromExampleMatchesPredictSeconds) {
  fleet::FleetGenerator generator(SmallFleet());
  const auto fleet = generator.GenerateFleet();
  std::vector<GlobalExample> examples;
  for (const auto& event : fleet[0].trace) {
    examples.push_back(MakeGlobalExample(event.plan, fleet[0].config,
                                         event.concurrent_queries,
                                         event.exec_seconds));
  }
  const GlobalModel model = GlobalModel::Train(examples, FastConfig());
  const auto& event = fleet[0].trace[5];
  const GlobalExample example = MakeGlobalExample(
      event.plan, fleet[0].config, event.concurrent_queries, 0.0);
  EXPECT_DOUBLE_EQ(
      model.PredictSecondsFromExample(example),
      model.PredictSeconds(event.plan, fleet[0].config,
                           event.concurrent_queries));
}

TEST(GlobalModelTest, SaveLoadRoundTripPreservesPredictions) {
  fleet::FleetGenerator generator(SmallFleet());
  const auto fleet = generator.GenerateFleet();
  std::vector<GlobalExample> examples;
  for (const auto& event : fleet[0].trace) {
    examples.push_back(MakeGlobalExample(event.plan, fleet[0].config,
                                         event.concurrent_queries,
                                         event.exec_seconds));
  }
  const GlobalModel original = GlobalModel::Train(examples, FastConfig());

  std::stringstream buffer;
  original.Save(buffer);
  GlobalModel restored;
  ASSERT_TRUE(restored.Load(buffer));
  EXPECT_TRUE(restored.trained());
  EXPECT_EQ(restored.MemoryBytes(), original.MemoryBytes());

  for (int i = 0; i < 20; ++i) {
    const auto& event = fleet[1].trace[i];
    EXPECT_DOUBLE_EQ(
        original.PredictSeconds(event.plan, fleet[1].config,
                                event.concurrent_queries),
        restored.PredictSeconds(event.plan, fleet[1].config,
                                event.concurrent_queries));
  }
}

TEST(GlobalModelTest, PredictBatchBitEqualsPredictSeconds) {
  fleet::FleetGenerator generator(SmallFleet());
  const auto fleet = generator.GenerateFleet();
  std::vector<GlobalExample> examples;
  for (const auto& event : fleet[0].trace) {
    examples.push_back(MakeGlobalExample(event.plan, fleet[0].config,
                                         event.concurrent_queries,
                                         event.exec_seconds));
  }
  const GlobalModel model = GlobalModel::Train(examples, FastConfig());

  std::vector<GlobalQuery> queries;
  for (int i = 0; i < 60; ++i) {
    const auto& event = fleet[1].trace[i];
    queries.push_back({&event.plan, event.concurrent_queries});
  }
  std::vector<double> batched(queries.size(), -1.0);
  model.PredictBatch(queries, fleet[1].config, batched);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batched[i],
              model.PredictSeconds(*queries[i].plan, fleet[1].config,
                                   queries[i].concurrent_queries))
        << "query " << i;
  }

  // The pool only fans out GEMM row blocks; bytes must not change.
  ThreadPool pool(3);
  std::vector<double> pooled(queries.size(), -1.0);
  model.PredictBatch(queries, fleet[1].config, pooled, &pool);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batched[i], pooled[i]) << "query " << i;
  }

  // Single-query batches are the degenerate case.
  std::vector<double> one(1, -1.0);
  model.PredictBatch(std::span<const GlobalQuery>(queries.data(), 1),
                     fleet[1].config, one);
  EXPECT_EQ(one[0], batched[0]);
}

TEST(GlobalModelTest, TrainBytesIdenticalAcrossPoolWidths) {
  fleet::FleetGenerator generator(SmallFleet());
  const auto fleet = generator.GenerateFleet();
  std::vector<GlobalExample> examples;
  for (const auto& event : fleet[0].trace) {
    examples.push_back(MakeGlobalExample(event.plan, fleet[0].config,
                                         event.concurrent_queries,
                                         event.exec_seconds));
  }
  GlobalModelConfig config = FastConfig();
  config.epochs = 2;

  // Serial reference: parallelism off entirely.
  config.parallel_train = false;
  double serial_mae = -1.0;
  const GlobalModel serial = GlobalModel::Train(examples, config, &serial_mae);
  std::stringstream serial_bytes;
  serial.Save(serial_bytes);

  // Every pool width must yield the identical checkpoint: gradient
  // accumulation is tiled per output element, never reassociated.
  config.parallel_train = true;
  for (const int width : {1, 2, 8}) {
    ThreadPool pool(width);
    double mae = -1.0;
    const GlobalModel parallel =
        GlobalModel::Train(examples, config, &mae, &pool);
    std::stringstream bytes;
    parallel.Save(bytes);
    EXPECT_EQ(serial_bytes.str(), bytes.str()) << "pool width " << width;
    EXPECT_EQ(serial_mae, mae) << "pool width " << width;
  }
}

TEST(GlobalModelTest, LoadRejectsGarbage) {
  GlobalModel model;
  std::stringstream garbage("this is not a checkpoint");
  EXPECT_FALSE(model.Load(garbage));
  EXPECT_FALSE(model.trained());
}

// A checkpoint stream assembled from parts: the global-model header, a
// GCN over `input_dim`-wide node rows, and a head [hidden + system ->
// 8 -> head_out]. Each part is self-consistent, so only GlobalModel::Load
// can tell whether they fit the featurizer and the serving path.
std::string AssembledCheckpoint(int input_dim, int head_out) {
  Rng rng(43);
  nn::TreeGcn::Config gcn_config;
  gcn_config.input_dim = input_dim;
  gcn_config.hidden_dim = 12;
  gcn_config.num_layers = 2;
  nn::TreeGcn gcn;
  gcn.Init(gcn_config, rng);
  nn::Mlp head;
  head.Init({gcn_config.hidden_dim + kSystemFeatureDim, 8, head_out}, rng);
  std::stringstream out;
  WriteHeader(out, 0x53474d4c /* "SGML" */, /*version=*/1);
  gcn.Save(out);
  head.Save(out);
  return out.str();
}

TEST(GlobalModelTest, LoadRejectsGcnInputOtherThanNodeFeatureWidth) {
  std::istringstream serving(AssembledCheckpoint(plan::kNodeFeatureDim, 1));
  ASSERT_TRUE(GlobalModel().Load(serving));
  // A GCN over 4-wide node rows cannot read the featurizer's rows: such a
  // checkpoint used to load, and the first PredictSeconds then aborted.
  std::istringstream in(AssembledCheckpoint(4, 1));
  GlobalModel model;
  EXPECT_FALSE(model.Load(in));
  EXPECT_FALSE(model.trained());
}

TEST(GlobalModelTest, LoadRejectsHeadWithMoreThanOneOutput) {
  std::istringstream serving(AssembledCheckpoint(plan::kNodeFeatureDim, 1));
  ASSERT_TRUE(GlobalModel().Load(serving));
  // With two outputs per query, PredictBatch would read query 0's second
  // output as query 1's answer.
  std::istringstream in(AssembledCheckpoint(plan::kNodeFeatureDim, 2));
  GlobalModel model;
  EXPECT_FALSE(model.Load(in));
  EXPECT_FALSE(model.trained());
}

TEST(GlobalModelTest, LoadRejectsNonFiniteWeights) {
  fleet::FleetGenerator generator(SmallFleet());
  const auto fleet = generator.GenerateFleet();
  std::vector<GlobalExample> examples;
  for (const auto& event : fleet[0].trace) {
    examples.push_back(MakeGlobalExample(event.plan, fleet[0].config,
                                         event.concurrent_queries,
                                         event.exec_seconds));
  }
  std::stringstream buffer;
  GlobalModel::Train(examples, FastConfig()).Save(buffer);
  const std::string bytes = buffer.str();

  GlobalModel model;
  std::istringstream good(bytes);
  ASSERT_TRUE(model.Load(good));
  const auto& event = fleet[1].trace[0];
  const double clean = model.PredictSeconds(event.plan, fleet[1].config,
                                            event.concurrent_queries);
  ASSERT_GT(clean, 0.0);

  // The stream is the header, then the GCN: four 4-byte config fields and
  // self layer 0 (int32 in, int32 out, a uint64 count, then its weights).
  // The head comes last, and its output layer's one bias float ends the
  // stream. Either value used to load, and a NaN anywhere made every
  // prediction exactly 0 s.
  std::stringstream header;
  WriteHeader(header, 0x53474d4c /* "SGML" */, /*version=*/1);
  const size_t first_gcn_weight = header.str().size() + 4 * 4 + 2 * 4 + 8;
  const struct {
    size_t offset;
    float value;
  } poisons[] = {{bytes.size() - sizeof(float), std::nanf("")},
                 {first_gcn_weight, std::numeric_limits<float>::infinity()}};
  for (const auto& poison : poisons) {
    std::string patched = bytes;
    std::memcpy(patched.data() + poison.offset, &poison.value,
                sizeof(float));
    std::istringstream in(patched);
    EXPECT_FALSE(model.Load(in))
        << poison.value << " at byte " << poison.offset;
    // The failed load leaves the loaded model serving as before.
    EXPECT_EQ(model.PredictSeconds(event.plan, fleet[1].config,
                                   event.concurrent_queries),
              clean);
    std::istringstream fresh_in(patched);
    GlobalModel fresh;
    EXPECT_FALSE(fresh.Load(fresh_in));
    EXPECT_FALSE(fresh.trained());
  }
}

}  // namespace
}  // namespace stage::global
