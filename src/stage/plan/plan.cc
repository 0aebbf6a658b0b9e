#include "stage/plan/plan.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "stage/common/macros.h"

namespace stage::plan {

bool IsValidPlan(std::span<const PlanNode> nodes) {
  if (nodes.empty()) return false;
  const auto usable = [](double estimate) {
    return std::isfinite(estimate) && estimate >= 0.0;
  };
  std::vector<int> parent_count(nodes.size(), 0);
  for (size_t i = 0; i < nodes.size(); ++i) {
    const PlanNode& node = nodes[i];
    if (!usable(node.estimated_cost) || !usable(node.estimated_cardinality) ||
        !usable(node.tuple_width) || !usable(node.table_rows)) {
      return false;
    }
    for (int32_t child : node.children) {
      if (child <= static_cast<int32_t>(i) ||
          child >= static_cast<int32_t>(nodes.size())) {
        return false;  // Children must come after their parent (pre-order).
      }
      if (++parent_count[child] > 1) return false;
    }
  }
  // Every node except the root must have exactly one parent.
  for (size_t i = 1; i < nodes.size(); ++i) {
    if (parent_count[i] != 1) return false;
  }
  return parent_count[0] == 0;
}

Plan::Plan(QueryType query_type, std::vector<PlanNode> nodes)
    : query_type_(query_type), nodes_(std::move(nodes)) {
  STAGE_CHECK_MSG(IsValidPlan(nodes_),
                  "PlanNode vector does not form a tree with finite, "
                  "non-negative estimates");
}

int Plan::Depth() const {
  if (nodes_.empty()) return 0;
  // Pre-order storage: a node's depth is known before its children's.
  // Thread-local scratch: Depth() sits on the allocation-free predict hot
  // path (global::SystemFeaturesInto calls it per query).
  thread_local std::vector<int> depth;
  depth.assign(nodes_.size(), 1);
  int max_depth = 1;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    for (int32_t child : nodes_[i].children) {
      depth[child] = depth[i] + 1;
      max_depth = std::max(max_depth, depth[child]);
    }
  }
  return max_depth;
}

double Plan::TotalEstimatedCost() const {
  double total = 0.0;
  for (const PlanNode& node : nodes_) total += node.estimated_cost;
  return total;
}

std::vector<int32_t> Plan::BottomUpOrder() const {
  // Pre-order guarantees children have larger indices than parents, so a
  // simple descending index order is a valid bottom-up traversal.
  std::vector<int32_t> order(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    order[i] = static_cast<int32_t>(nodes_.size() - 1 - i);
  }
  return order;
}

std::string Plan::ToString() const {
  std::ostringstream out;
  out << QueryTypeName(query_type_) << " plan (" << nodes_.size()
      << " nodes)\n";
  // Depth-first walk with indentation.
  struct Frame {
    int32_t node;
    int depth;
  };
  std::vector<Frame> stack = {{0, 0}};
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    const PlanNode& node = nodes_[frame.node];
    for (int i = 0; i < frame.depth; ++i) out << "  ";
    out << "-> " << OperatorTypeName(node.op)
        << " (cost=" << node.estimated_cost
        << " rows=" << node.estimated_cardinality
        << " width=" << node.tuple_width;
    if (ReadsBaseTable(node.op)) {
      out << " format=" << S3FormatName(node.s3_format)
          << " table_rows=" << node.table_rows;
    }
    out << ")\n";
    // Push children in reverse so the left child prints first.
    for (auto it = node.children.rbegin(); it != node.children.rend(); ++it) {
      stack.push_back({*it, frame.depth + 1});
    }
  }
  return out.str();
}

}  // namespace stage::plan
