#ifndef STAGE_GBT_FLAT_FOREST_H_
#define STAGE_GBT_FLAT_FOREST_H_

#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <vector>

#include "stage/gbt/tree.h"

namespace stage::gbt {

// The one form a trained or loaded GBT model keeps: every tree of every
// round flattened into contiguous arrays (tree roots, packed 12-byte nodes,
// leaf values). Train builds RegressionTrees, compiles them once and drops
// them; Save/Load write and read these arrays as they are (the SGBT v2
// stream), so a load compiles nothing.
//
// Why it is faster than walking RegressionTree nodes:
//  * no per-call heap allocation (PredictInto writes caller storage);
//  * one flat buffer instead of one heap allocation per tree behind two
//    levels of vector indirection, so consecutive trees prefetch;
//  * nodes are laid out so a split's children are adjacent
//    (right == left + 1), and the three fields a descent step reads are
//    packed into one 12-byte record — one cache-line touch per node,
//    branchless step. Leaf values stay in a separate array, read once
//    per tree.
// Predictions are bit-for-bit identical to walking the trees Compile was
// given with RegressionTree::Predict: same thresholds, same leaf values,
// same `x <= t` comparison (including the NaN-goes-right convention).
class FlatForest {
 public:
  FlatForest() = default;

  // Compiles trees[round][output] plus per-output base scores. Tree t
  // contributes to output t % num_outputs, matching GbdtModel's
  // round-major, output-interleaved accumulation order.
  static FlatForest Compile(
      const std::vector<double>& base_scores,
      const std::vector<std::vector<RegressionTree>>& trees);

  int num_outputs() const { return num_outputs_; }
  size_t num_trees() const { return roots_.size(); }
  size_t num_nodes() const { return nodes_.size(); }
  bool empty() const { return num_outputs_ == 0; }
  const std::vector<double>& base_scores() const { return base_scores_; }

  // Allocation-free single-row predict; out.size() must equal
  // num_outputs().
  void PredictInto(const float* row, std::span<double> out) const;

  // Output 0 only, walking only that output's trees.
  double PredictScalar(const float* row) const;

  // Adds each split's feature into `counts` (size > every split feature)
  // and returns the number of splits.
  double AddSplitCounts(std::span<double> counts) const;

  // Base scores plus the three flat arrays (Fig. 9 accounting).
  size_t MemoryBytes() const;

  // The arrays as the predict path reads them: base scores, tree roots,
  // nodes, leaf values, each a count-prefixed vector. Load accepts only
  // what Compile builds: 1 to 64 finite base scores; a tree count that is
  // a multiple of them; roots that start at 0 and ascend; one finite
  // value per node; and in each tree, splits on a feature inside
  // [0, num_features) at a finite threshold whose two adjacent children
  // come after the split, lie inside its tree and belong to no other
  // split, with every other node of the tree some split's child. So every
  // descent stays inside the row and its tree and ends on a leaf. A failed
  // Load leaves the forest untouched.
  void Save(std::ostream& out) const;
  bool Load(std::istream& in, int32_t num_features);

 private:
  // The hot per-node state: everything one descent step reads, in 12
  // bytes. feature is -1 for leaves; left is the absolute index of the
  // left child and the right child is left + 1.
  struct Node {
    int32_t feature;
    float threshold;
    int32_t left;
  };
  static_assert(sizeof(Node) == 12, "descent state must stay 12 bytes");

  void AppendTree(const RegressionTree& tree);

  // Leaf index reached by `row` in the tree rooted at `root`.
  inline int32_t Descend(int32_t root, const float* row) const {
    const Node* nodes = nodes_.data();
    int32_t idx = root;
    int32_t feature = nodes[idx].feature;
    while (feature >= 0) {
      // `!(x <= t)` rather than `x > t` so NaN takes the right child,
      // exactly like RegressionTree::Predict's `x <= t ? left : right`.
      idx = nodes[idx].left +
            static_cast<int32_t>(!(row[feature] <= nodes[idx].threshold));
      feature = nodes[idx].feature;
    }
    return idx;
  }

  // kLanes independent tree descents over one row in lockstep. Each lane
  // takes exactly the steps Descend would (same leaves, same bits); the
  // point is throughput: a lone descent is a chain of dependent loads, so
  // it pays the full cache latency per level, while several trees in
  // flight let the out-of-order core overlap those misses. idx[] holds
  // the roots on entry and the leaves on return.
  template <int kLanes>
  inline void DescendLanes(const float* row, int32_t* idx) const {
    const Node* nodes = nodes_.data();
    for (;;) {
      int32_t features[kLanes];
      int32_t all = -1;
      for (int k = 0; k < kLanes; ++k) {
        features[k] = nodes[idx[k]].feature;
        all &= features[k];
      }
      // The sign bit survives the AND only if every lane sits on a leaf.
      if (all < 0) return;
      for (int k = 0; k < kLanes; ++k) {
        if (features[k] >= 0) {
          idx[k] = nodes[idx[k]].left +
                   static_cast<int32_t>(
                       !(row[features[k]] <= nodes[idx[k]].threshold));
        }
      }
    }
  }

  int num_outputs_ = 0;
  std::vector<double> base_scores_;
  std::vector<int32_t> roots_;  // One entry per tree, round-major.
  std::vector<Node> nodes_;
  std::vector<double> value_;  // Leaf values (0 for internal nodes).
};

}  // namespace stage::gbt

#endif  // STAGE_GBT_FLAT_FOREST_H_
