#ifndef STAGE_NN_TREE_BATCH_H_
#define STAGE_NN_TREE_BATCH_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "stage/common/macros.h"

namespace stage::nn {

// A forest of plan trees laid out in slots for batched GCN execution
// (TreeGcn::ForwardBatch / BackwardBatch).
//
// A GCN layer's output for every node depends only on the PREVIOUS layer's
// activations (a node aggregates its children's layer-l features to
// compute layer l+1), so there is no intra-layer ordering constraint: one
// GEMM per (layer, transform) covers a whole slot range of every tree at
// once. Two slot orders serve the two passes:
//   * Tree-major, what AddTree builds: each tree's nodes occupy one slot
//     range in BFS order, trees in the order added. Training computes
//     every slot in this order; its dropout draws and gradient row sums
//     follow it, so the trained bytes do too.
//   * Level-major, what AssignLevelMajor builds: every root (in tree
//     order), then every depth-1 node, and so on; within a level, trees
//     keep their order and each tree its BFS order. Layer l of an L-layer
//     GCN matters to a root only at the nodes within depth L-1-l of it,
//     and in this order those nodes are one slot prefix
//     (SlotsWithinDepth) for any number of trees, which is all an eval
//     pass computes. One tree's BFS order is already level-major.
// In both orders a node's children occupy one contiguous slot range
// [child_start, child_start + child_count), appended in their original
// list order, so the child-mean aggregation streams contiguous rows and
// sums terms in exactly the order the naive single-tree walk does
// (bit-for-bit identical results).
//
// The batch is reusable: Clear() and AssignLevelMajor() keep every
// buffer's capacity, so building the same-shaped batch again allocates
// nothing.
class TreeBatch {
 public:
  // Resets to an empty tree-major batch of `feature_dim`-wide nodes.
  void Clear(int feature_dim) {
    STAGE_CHECK(feature_dim > 0);
    feature_dim_ = feature_dim;
    features_.clear();
    child_start_.clear();
    child_count_.clear();
    depth_.clear();
    roots_.clear();
    level_end_.clear();
    level_major_ = false;
  }

  // Adds one tree rooted at node 0 to a tree-major batch. `features` is
  // row-major [num_nodes x feature_dim] in the tree's own node order;
  // `children_of(i)` returns node i's children as a
  // const std::vector<int32_t>&. The nodes must form a tree (every non-root
  // reachable from the root exactly once).
  template <typename ChildrenOf>
  void AddTree(const float* features, int num_nodes,
               ChildrenOf&& children_of) {
    STAGE_CHECK(num_nodes > 0);
    STAGE_CHECK(!level_major_);
    const int32_t base = static_cast<int32_t>(child_start_.size());
    const size_t end = static_cast<size_t>(base) + num_nodes;
    roots_.push_back(base);
    child_start_.resize(end);
    child_count_.resize(end);
    depth_.resize(end);
    features_.resize(end * feature_dim_);
    bfs_.clear();
    bfs_.push_back(0);
    depth_[base] = 0;
    for (int32_t p = 0; p < num_nodes; ++p) {
      STAGE_CHECK_MSG(p < static_cast<int32_t>(bfs_.size()),
                      "disconnected tree");
      const int32_t old = bfs_[p];
      const std::vector<int32_t>& kids = children_of(old);
      child_start_[base + p] = base + static_cast<int32_t>(bfs_.size());
      child_count_[base + p] = static_cast<int32_t>(kids.size());
      for (int32_t c : kids) {
        STAGE_CHECK(c >= 0 && c < num_nodes);
        STAGE_CHECK_MSG(static_cast<int>(bfs_.size()) < num_nodes,
                        "node set is not a tree");
        depth_[base + bfs_.size()] = depth_[base + p] + 1;
        bfs_.push_back(c);
      }
      const float* src = features + static_cast<size_t>(old) * feature_dim_;
      float* dst =
          features_.data() + static_cast<size_t>(base + p) * feature_dim_;
      for (int j = 0; j < feature_dim_; ++j) dst[j] = src[j];
    }
  }

  // Convenience overload for adjacency stored as vector-of-vectors.
  void AddTree(const float* features, int num_nodes,
               const std::vector<std::vector<int32_t>>& children) {
    STAGE_CHECK(static_cast<int>(children.size()) == num_nodes);
    AddTree(features, num_nodes,
            [&children](int32_t i) -> const std::vector<int32_t>& {
              return children[static_cast<size_t>(i)];
            });
  }

  // Replaces this batch with `src`'s nodes within `max_depth` of their
  // root, laid out level-major. Deeper nodes are dropped, so a node at
  // max_depth keeps no children here. Tree t's root is slot t.
  void AssignLevelMajor(const TreeBatch& src, int max_depth) {
    STAGE_CHECK(max_depth >= 0);
    STAGE_CHECK(&src != this);
    Clear(src.feature_dim_);
    const int n = src.num_nodes();
    // level_end_ first counts each kept level's nodes, then holds each
    // level's first slot, and ends as each level's one-past-last slot
    // once every node has claimed its slot.
    for (int s = 0; s < n; ++s) {
      const int32_t d = src.depth_[static_cast<size_t>(s)];
      if (d > max_depth) continue;
      if (static_cast<size_t>(d) >= level_end_.size()) {
        level_end_.resize(static_cast<size_t>(d) + 1, 0);
      }
      ++level_end_[static_cast<size_t>(d)];
    }
    int32_t kept = 0;
    for (int32_t& level : level_end_) {
      const int32_t count = level;
      level = kept;
      kept += count;
    }
    slot_of_.resize(static_cast<size_t>(n));
    for (int s = 0; s < n; ++s) {
      const int32_t d = src.depth_[static_cast<size_t>(s)];
      slot_of_[static_cast<size_t>(s)] =
          d <= max_depth ? level_end_[static_cast<size_t>(d)]++ : -1;
    }
    child_start_.resize(static_cast<size_t>(kept));
    child_count_.resize(static_cast<size_t>(kept));
    depth_.resize(static_cast<size_t>(kept));
    features_.resize(static_cast<size_t>(kept) * feature_dim_);
    for (int s = 0; s < n; ++s) {
      const int32_t slot = slot_of_[static_cast<size_t>(s)];
      if (slot < 0) continue;
      const int32_t d = src.depth_[static_cast<size_t>(s)];
      const int32_t count =
          d < max_depth ? src.child_count_[static_cast<size_t>(s)] : 0;
      child_count_[static_cast<size_t>(slot)] = count;
      child_start_[static_cast<size_t>(slot)] =
          count > 0 ? slot_of_[static_cast<size_t>(
                          src.child_start_[static_cast<size_t>(s)])]
                    : 0;
      depth_[static_cast<size_t>(slot)] = d;
      const float* row =
          src.features_.data() + static_cast<size_t>(s) * feature_dim_;
      std::copy(row, row + feature_dim_,
                features_.data() + static_cast<size_t>(slot) * feature_dim_);
    }
    for (const int32_t root : src.roots_) {
      roots_.push_back(slot_of_[static_cast<size_t>(root)]);
    }
    level_major_ = true;
  }

  int feature_dim() const { return feature_dim_; }
  int num_nodes() const { return static_cast<int>(child_start_.size()); }
  int num_trees() const { return static_cast<int>(roots_.size()); }

  // Node features, row-major [num_nodes x feature_dim], in slot order.
  const float* features() const { return features_.data(); }

  // Slot of tree t's root.
  int32_t root_slot(int t) const { return roots_[static_cast<size_t>(t)]; }

  // Node `slot`'s children are slots [child_start(slot),
  // child_start(slot) + child_count(slot)).
  int32_t child_start(int slot) const {
    return child_start_[static_cast<size_t>(slot)];
  }
  int32_t child_count(int slot) const {
    return child_count_[static_cast<size_t>(slot)];
  }

  // Level-major batches only: the number of slots within `depth` of their
  // root, which are slots [0, SlotsWithinDepth(depth)).
  int SlotsWithinDepth(int depth) const {
    STAGE_CHECK(level_major_ && depth >= 0);
    if (level_end_.empty()) return 0;
    return level_end_[std::min(static_cast<size_t>(depth),
                               level_end_.size() - 1)];
  }

 private:
  int feature_dim_ = 0;
  bool level_major_ = false;
  std::vector<float> features_;
  std::vector<int32_t> child_start_;
  std::vector<int32_t> child_count_;
  std::vector<int32_t> depth_;  // Each slot's distance from its root.
  std::vector<int32_t> roots_;
  // Level-major only: level_end_[d] is one past the last slot of depth d.
  std::vector<int32_t> level_end_;
  std::vector<int32_t> bfs_;      // AddTree scratch: old indices, BFS order.
  std::vector<int32_t> slot_of_;  // AssignLevelMajor scratch: src -> slot.
};

}  // namespace stage::nn

#endif  // STAGE_NN_TREE_BATCH_H_
