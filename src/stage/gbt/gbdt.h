#ifndef STAGE_GBT_GBDT_H_
#define STAGE_GBT_GBDT_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <vector>

#include "stage/gbt/dataset.h"
#include "stage/gbt/flat_forest.h"
#include "stage/gbt/loss.h"
#include "stage/gbt/tree.h"

namespace stage::gbt {

// Hyper-parameters, defaulted to the paper's local-model settings (§5.1):
// 200 estimators, max depth 6, a random 20% validation split for early
// stopping.
struct GbdtConfig {
  int num_rounds = 200;
  int max_depth = 6;
  double learning_rate = 0.1;
  double lambda = 1.0;             // L2 regularization on leaf values.
  double min_child_hessian = 1.0;  // Min summed Hessian per child.
  int min_samples_leaf = 1;
  double subsample = 0.8;          // Row sampling per tree (bagging).
  double colsample = 1.0;          // Feature sampling per tree.
  int max_bins = 64;               // Histogram bins for split finding.
  double validation_fraction = 0.2;
  int early_stopping_rounds = 20;  // 0 disables early stopping.
  double max_leaf_delta = 10.0;    // Clip on the Newton leaf step.
  uint64_t seed = 0;
};

// A gradient-boosted decision tree model trained with per-leaf Newton steps
// (XGBoost-style second-order boosting) over histogram-quantized features.
// Supports multi-output losses: one tree per output per round.
//
// The model holds one form of its forest, the FlatForest: Train builds
// node-vector RegressionTrees, compiles them and drops them; Save/Load
// write and read the flat arrays (SGBT version 2), and every Predict* call
// walks them without heap allocation.
class GbdtModel {
 public:
  GbdtModel() = default;

  // Trains a model. An empty dataset yields a constant (base-score) model.
  // When `node_trees` is non-null it receives the trees as the trainer
  // built them, (*node_trees)[round][output], before compilation: the
  // reference that tests and benches walk. The model keeps no copy.
  static GbdtModel Train(
      const Dataset& data, const Loss& loss, const GbdtConfig& config,
      std::vector<std::vector<RegressionTree>>* node_trees = nullptr);

  // Predicts all outputs for one raw feature row. Thin wrapper over
  // PredictInto; hot paths should call PredictInto with reused storage.
  std::vector<double> Predict(const float* row) const;
  // Allocation-free predict into caller storage; out.size() must equal
  // num_outputs().
  void PredictInto(const float* row, std::span<double> out) const;
  // Convenience: output 0 only (single-output losses).
  double PredictScalar(const float* row) const;

  // Binary checkpointing; Load replaces the model and returns false on a
  // malformed stream (see FlatForest::Load), leaving the model untouched.
  // Version-1 streams (node-vector trees) are rejected.
  void Save(std::ostream& out) const;
  bool Load(std::istream& in);

  // Split-frequency feature importance ("weight" importance): the share
  // of internal splits that test each feature, normalized to sum to 1
  // (all-zero for a constant model). Useful for auditing what the local
  // model actually keys on.
  std::vector<double> FeatureImportance() const;
  // Out-parameter form: adds this model's raw split counts into `counts`
  // (size num_features()) and returns the total number of splits, letting
  // aggregating callers (ensembles) avoid per-member temporaries.
  double AddSplitCounts(std::span<double> counts) const;

  int num_outputs() const { return flat_.num_outputs(); }
  int num_features() const { return num_features_; }
  // Boosting rounds retained after early stopping.
  int rounds_used() const;
  // Base scores plus the flat arrays.
  size_t MemoryBytes() const { return flat_.MemoryBytes(); }

  const std::vector<double>& base_scores() const {
    return flat_.base_scores();
  }
  const FlatForest& flat() const { return flat_; }

 private:
  int num_features_ = 0;
  FlatForest flat_;
};

}  // namespace stage::gbt

#endif  // STAGE_GBT_GBDT_H_
