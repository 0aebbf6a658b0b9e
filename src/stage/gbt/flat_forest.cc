#include "stage/gbt/flat_forest.h"

#include <cmath>
#include <limits>
#include <utility>

#include "stage/common/macros.h"
#include "stage/common/serialize.h"

namespace stage::gbt {

namespace {
// Node indices are int32, so no array of a forest can hold more entries.
constexpr uint64_t kMaxEntries = std::numeric_limits<int32_t>::max();
}  // namespace

FlatForest FlatForest::Compile(
    const std::vector<double>& base_scores,
    const std::vector<std::vector<RegressionTree>>& trees) {
  FlatForest flat;
  flat.num_outputs_ = static_cast<int>(base_scores.size());
  flat.base_scores_ = base_scores;

  size_t total_nodes = 0;
  size_t total_trees = 0;
  for (const auto& round : trees) {
    for (const RegressionTree& tree : round) {
      total_nodes += tree.nodes().size();
      ++total_trees;
    }
  }
  flat.roots_.reserve(total_trees);
  flat.nodes_.reserve(total_nodes);
  flat.value_.reserve(total_nodes);
  for (const auto& round : trees) {
    for (const RegressionTree& tree : round) flat.AppendTree(tree);
  }
  return flat;
}

void FlatForest::AppendTree(const RegressionTree& tree) {
  const std::vector<RegressionTree::Node>& nodes = tree.nodes();
  STAGE_CHECK(!nodes.empty());
  const int32_t root = static_cast<int32_t>(nodes_.size());
  roots_.push_back(root);

  // Breadth-first re-layout with both children of a split emitted
  // adjacently, so only the left index is stored (right == left + 1) and
  // the top levels of the tree share cache lines.
  const auto emit_slot = [this] {
    nodes_.push_back(Node{-1, 0.0f, -1});
    value_.push_back(0.0);
  };
  emit_slot();  // Root slot.
  std::vector<std::pair<int32_t, int32_t>> pending;  // (old index, new index)
  pending.reserve(nodes.size());
  pending.emplace_back(0, root);
  for (size_t q = 0; q < pending.size(); ++q) {
    const auto [old_idx, new_idx] = pending[q];
    const RegressionTree::Node& node = nodes[old_idx];
    if (node.is_leaf()) {
      value_[new_idx] = node.value;
      continue;
    }
    const int32_t new_left = static_cast<int32_t>(nodes_.size());
    emit_slot();
    emit_slot();
    nodes_[new_idx] = Node{node.feature, node.threshold, new_left};
    pending.emplace_back(node.left, new_left);
    pending.emplace_back(node.right, new_left + 1);
  }
}

void FlatForest::PredictInto(const float* row, std::span<double> out) const {
  STAGE_DCHECK(out.size() == static_cast<size_t>(num_outputs_));
  for (int p = 0; p < num_outputs_; ++p) out[p] = base_scores_[p];
  const size_t n = roots_.size();
  int p = 0;
  size_t t = 0;
  // Trees descend in lockstep lanes; their leaf values are then added in
  // plain tree order, so the accumulation (and hence every result bit)
  // matches the serial walk.
  constexpr int kLanes = 8;
  for (; t + kLanes <= n; t += kLanes) {
    int32_t idx[kLanes];
    for (int k = 0; k < kLanes; ++k) idx[k] = roots_[t + k];
    DescendLanes<kLanes>(row, idx);
    for (int k = 0; k < kLanes; ++k) {
      out[p] += value_[idx[k]];
      if (++p == num_outputs_) p = 0;
    }
  }
  for (; t < n; ++t) {
    out[p] += value_[Descend(roots_[t], row)];
    if (++p == num_outputs_) p = 0;
  }
}

double FlatForest::PredictScalar(const float* row) const {
  STAGE_DCHECK(num_outputs_ >= 1);
  const size_t stride = static_cast<size_t>(num_outputs_);
  const size_t n = roots_.size();
  double out = base_scores_[0];
  size_t t = 0;
  constexpr int kLanes = 8;
  for (; t + (kLanes - 1) * stride < n; t += kLanes * stride) {
    int32_t idx[kLanes];
    for (int k = 0; k < kLanes; ++k) {
      idx[k] = roots_[t + static_cast<size_t>(k) * stride];
    }
    DescendLanes<kLanes>(row, idx);
    // One addition per statement: the order must match the serial walk.
    for (int k = 0; k < kLanes; ++k) out += value_[idx[k]];
  }
  for (; t < n; t += stride) {
    out += value_[Descend(roots_[t], row)];
  }
  return out;
}

double FlatForest::AddSplitCounts(std::span<double> counts) const {
  double total = 0.0;
  for (const Node& node : nodes_) {
    if (node.feature < 0) continue;
    STAGE_DCHECK(static_cast<size_t>(node.feature) < counts.size());
    counts[node.feature] += 1.0;
    total += 1.0;
  }
  return total;
}

size_t FlatForest::MemoryBytes() const {
  return base_scores_.size() * sizeof(double) +
         roots_.size() * sizeof(int32_t) + nodes_.size() * sizeof(Node) +
         value_.size() * sizeof(double);
}

void FlatForest::Save(std::ostream& out) const {
  WriteVector(out, base_scores_);
  WriteVector(out, roots_);
  WriteVector(out, nodes_);
  WriteVector(out, value_);
}

bool FlatForest::Load(std::istream& in, int32_t num_features) {
  FlatForest flat;
  if (!ReadVector(in, &flat.base_scores_, 64) ||
      flat.base_scores_.empty() ||
      !ReadVector(in, &flat.roots_, kMaxEntries) ||
      !ReadVector(in, &flat.nodes_, kMaxEntries) ||
      !ReadVector(in, &flat.value_, kMaxEntries)) {
    return false;
  }
  const std::vector<int32_t>& roots = flat.roots_;
  const std::vector<Node>& nodes = flat.nodes_;
  const std::vector<double>& values = flat.value_;
  for (const double score : flat.base_scores_) {
    if (!std::isfinite(score)) return false;
  }
  if (roots.size() % flat.base_scores_.size() != 0 ||
      values.size() != nodes.size() || roots.empty() != nodes.empty() ||
      (!roots.empty() && roots.front() != 0)) {
    return false;
  }
  // One pass over each tree's node range [begin, end). A node other than
  // the root must already be claimed: children come after their split, so
  // every split that could claim it has been read.
  std::vector<bool> claimed(nodes.size(), false);
  for (size_t t = 0; t < roots.size(); ++t) {
    const size_t begin = static_cast<size_t>(roots[t]);
    const size_t end =
        t + 1 < roots.size() ? static_cast<size_t>(roots[t + 1]) : nodes.size();
    // Roots ascend, and the last one is a node (a negative root wraps).
    if (end <= begin || end > nodes.size()) return false;
    for (size_t i = begin; i < end; ++i) {
      if ((i != begin && !claimed[i]) || !std::isfinite(values[i])) {
        return false;
      }
      const Node& node = nodes[i];
      if (node.feature == -1) continue;  // A leaf.
      if (node.feature < 0 || node.feature >= num_features ||
          !std::isfinite(node.threshold)) {
        return false;
      }
      // A negative left child wraps to a huge index and fails the bound.
      const size_t left = static_cast<size_t>(node.left);
      if (left <= i || left >= end - 1 || claimed[left] ||
          claimed[left + 1]) {
        return false;
      }
      claimed[left] = true;
      claimed[left + 1] = true;
    }
  }
  flat.num_outputs_ = static_cast<int>(flat.base_scores_.size());
  *this = std::move(flat);
  return true;
}

}  // namespace stage::gbt
