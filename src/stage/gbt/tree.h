#ifndef STAGE_GBT_TREE_H_
#define STAGE_GBT_TREE_H_

#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <utility>
#include <vector>

namespace stage::gbt {

// A single binary regression tree with axis-aligned float-threshold splits.
// Built by the GBDT trainer over quantized features; prediction runs on raw
// float rows (the thresholds are de-quantized bin boundaries).
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

  // Scales every leaf value (used to apply the learning rate once).
  void ScaleLeaves(double factor);

  // Rough memory footprint in bytes (Fig. 9 accounting).
  size_t MemoryBytes() const { return nodes_.size() * sizeof(Node); }

  // Binary checkpointing (see stage/common/serialize.h). Load rejects a
  // tree the trainer cannot build: a split feature outside
  // [0, num_features), a non-finite threshold or leaf value, or a child
  // that is not placed after its split or is claimed by two splits. A
  // failed Load leaves the tree untouched.
  void Save(std::ostream& out) const;
  bool Load(std::istream& in, int32_t num_features);

 private:
  std::vector<Node> nodes_;
};

}  // namespace stage::gbt

#endif  // STAGE_GBT_TREE_H_
