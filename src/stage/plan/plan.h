#ifndef STAGE_PLAN_PLAN_H_
#define STAGE_PLAN_PLAN_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "stage/plan/operator_type.h"

namespace stage::plan {

// One node of a physical execution plan tree, carrying the optimizer's
// estimates — the same information the Stage predictor reads from Redshift's
// STL_EXPLAIN logs (§4.4).
struct PlanNode {
  OperatorType op = OperatorType::kUnknown;
  // Optimizer cost estimate (arbitrary cost units, like Redshift's).
  double estimated_cost = 0.0;
  // Optimizer output-cardinality estimate (rows).
  double estimated_cardinality = 0.0;
  // Estimated output tuple width in bytes.
  double tuple_width = 0.0;
  // Base-table storage format; kNotBaseTable unless ReadsBaseTable(op).
  S3Format s3_format = S3Format::kNotBaseTable;
  // Row count of the base table read (0 unless ReadsBaseTable(op)).
  double table_rows = 0.0;
  // Identifier of the base table read (-1 unless ReadsBaseTable(op)); used
  // by the fleet's hidden ground-truth model, never by the predictors.
  int32_t table_id = -1;
  // TRUE output cardinality, known only after execution. Only the fleet's
  // hidden ground-truth latency model may read this; featurizers must use
  // estimated_cardinality. The gap between the two models Redshift's
  // cardinality-estimation error, one of the noise sources the paper cites
  // for the 33-dim vector (§4.3).
  double actual_cardinality = 0.0;
  // Indices of child nodes within Plan::nodes. Children always have larger
  // indices than their parent (nodes are stored in pre-order).
  std::vector<int32_t> children;
};

// True iff `nodes` form a plan the predictors can read: a tree rooted at
// node 0 with every child stored after its parent (pre-order) and one
// parent per non-root node, whose optimizer estimates (cost, cardinality,
// tuple width, table rows) are all finite and >= 0. A NaN estimate would
// pass through the featurizer into the features and the cache key. The
// Plan constructor aborts unless this holds, so decoders of untrusted
// input check it first.
bool IsValidPlan(std::span<const PlanNode> nodes);

// A physical execution plan: a tree of PlanNodes rooted at nodes[0].
class Plan {
 public:
  Plan() = default;
  // Requires IsValidPlan(nodes).
  Plan(QueryType query_type, std::vector<PlanNode> nodes);

  QueryType query_type() const { return query_type_; }
  const std::vector<PlanNode>& nodes() const { return nodes_; }
  const PlanNode& node(int32_t index) const { return nodes_[index]; }
  int32_t root() const { return 0; }
  bool empty() const { return nodes_.empty(); }
  int node_count() const { return static_cast<int>(nodes_.size()); }

  // Longest root-to-leaf path length (1 for a single node, 0 when empty).
  int Depth() const;

  // Sum of estimated_cost over all nodes.
  double TotalEstimatedCost() const;

  // IsValidPlan(nodes()): false only for the empty default-constructed plan.
  bool IsValidTree() const { return IsValidPlan(nodes_); }

  // Indices in bottom-up order (every node appears after all its children);
  // the order the tree-GCN uses for message passing.
  std::vector<int32_t> BottomUpOrder() const;

  // Multi-line EXPLAIN-style rendering for debugging and examples.
  std::string ToString() const;

 private:
  QueryType query_type_ = QueryType::kSelect;
  std::vector<PlanNode> nodes_;
};

}  // namespace stage::plan

#endif  // STAGE_PLAN_PLAN_H_
