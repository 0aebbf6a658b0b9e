#include "stage/gbt/tree.h"

#include "stage/common/macros.h"

namespace stage::gbt {

RegressionTree RegressionTree::Constant(double value) {
  RegressionTree tree;
  tree.AddLeaf(value);
  return tree;
}

int32_t RegressionTree::AddLeaf(double value) {
  Node node;
  node.value = value;
  nodes_.push_back(node);
  return static_cast<int32_t>(nodes_.size() - 1);
}

std::pair<int32_t, int32_t> RegressionTree::SplitLeaf(int32_t node_index,
                                                      int32_t feature,
                                                      float threshold) {
  STAGE_CHECK(node_index >= 0 &&
              node_index < static_cast<int32_t>(nodes_.size()));
  STAGE_CHECK(nodes_[node_index].is_leaf());
  const int32_t left = AddLeaf(0.0);
  const int32_t right = AddLeaf(0.0);
  Node& node = nodes_[node_index];  // Re-fetch: AddLeaf may reallocate.
  node.feature = feature;
  node.threshold = threshold;
  node.left = left;
  node.right = right;
  return {left, right};
}

void RegressionTree::SetLeafValue(int32_t node, double value) {
  STAGE_CHECK(node >= 0 && node < static_cast<int32_t>(nodes_.size()));
  STAGE_CHECK(nodes_[node].is_leaf());
  nodes_[node].value = value;
}

double RegressionTree::Predict(const float* row) const {
  STAGE_DCHECK(!nodes_.empty());
  int32_t index = 0;
  while (!nodes_[index].is_leaf()) {
    const Node& node = nodes_[index];
    index = row[node.feature] <= node.threshold ? node.left : node.right;
  }
  return nodes_[index].value;
}

int RegressionTree::num_leaves() const {
  int leaves = 0;
  for (const Node& node : nodes_) leaves += node.is_leaf() ? 1 : 0;
  return leaves;
}

}  // namespace stage::gbt
