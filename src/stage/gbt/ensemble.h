#ifndef STAGE_GBT_ENSEMBLE_H_
#define STAGE_GBT_ENSEMBLE_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "stage/common/thread_pool.h"
#include "stage/gbt/dataset.h"
#include "stage/gbt/gbdt.h"

namespace stage::gbt {

// Configuration of the Bayesian ensemble of GBT models ([31], §4.3).
struct EnsembleConfig {
  int num_members = 10;  // K in the paper.
  GbdtConfig member;     // Per-member hyper-parameters.
  bool parallel_train = true;
};

// A Bayesian ensemble of K independently trained Gaussian-NLL GBT models.
// Each member k outputs (mu_k, sigma_k^2); the ensemble combines them per
// the paper's Eq. 1 (mean prediction) and Eq. 2 (total uncertainty =
// model uncertainty + data uncertainty).
class BayesianGbtEnsemble {
 public:
  struct Prediction {
    double mean = 0.0;              // Eq. 1: average of member means.
    double model_variance = 0.0;    // Variance of member means.
    double data_variance = 0.0;     // Average of member sigma_k^2.
    double total_variance() const { return model_variance + data_variance; }
  };

  BayesianGbtEnsemble() = default;

  // Trains K members with distinct seeds (distinct bagging and distinct
  // validation splits provide the ensemble diversity). When parallel_train
  // is set, members train on `pool` (the shared process pool when null) —
  // a bounded worker set instead of one raw thread per member. Each member
  // is seeded independently and written to its own slot, so the trained
  // bytes are identical for every pool width, including serial.
  static BayesianGbtEnsemble Train(const Dataset& data,
                                   const EnsembleConfig& config,
                                   ThreadPool* pool = nullptr);
  // What member k trains with: config.member under its own derived seed.
  static GbdtConfig MemberConfig(const EnsembleConfig& config, int k);

  // Single-row ensemble prediction. Allocation-free: members predict into
  // stack storage via the compiled FlatForest path.
  Prediction Predict(const float* row) const;

  int num_members() const { return static_cast<int>(members_.size()); }
  const std::vector<GbdtModel>& members() const { return members_; }
  size_t MemoryBytes() const;

  // Mean split-frequency feature importance over the members.
  std::vector<double> FeatureImportance() const;

  // Binary checkpointing of all members.
  void Save(std::ostream& out) const;
  bool Load(std::istream& in);

 private:
  std::vector<GbdtModel> members_;
};

}  // namespace stage::gbt

#endif  // STAGE_GBT_ENSEMBLE_H_
