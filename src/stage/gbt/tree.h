#ifndef STAGE_GBT_TREE_H_
#define STAGE_GBT_TREE_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace stage::gbt {

// A single binary regression tree with axis-aligned float-threshold splits.
// The GBDT trainer builds it over quantized features and then compiles it
// into a FlatForest, which is what a model keeps, saves and predicts with;
// Predict here runs on raw float rows (the thresholds are de-quantized bin
// boundaries) and is the node-walk reference the flat form must match.
class RegressionTree {
 public:
  struct Node {
    // Internal nodes: split on features[feature] <= threshold -> left.
    int32_t feature = -1;
    float threshold = 0.0f;
    int32_t left = -1;
    int32_t right = -1;
    // Leaves: the (already learning-rate-scaled) additive value.
    double value = 0.0;
    bool is_leaf() const { return left < 0; }
  };

  RegressionTree() = default;

  // Single-leaf tree with a constant value.
  static RegressionTree Constant(double value);

  // Builder API used by the trainer. Returns the new node index.
  int32_t AddLeaf(double value);
  // Converts a leaf into an internal node with two fresh leaves; returns
  // {left_index, right_index}.
  std::pair<int32_t, int32_t> SplitLeaf(int32_t node, int32_t feature,
                                        float threshold);

  // Sets the value of an existing leaf node.
  void SetLeafValue(int32_t node, double value);

  double Predict(const float* row) const;

  const std::vector<Node>& nodes() const { return nodes_; }
  int num_leaves() const;

 private:
  std::vector<Node> nodes_;
};

}  // namespace stage::gbt

#endif  // STAGE_GBT_TREE_H_
