#ifndef STAGE_LOCAL_LOCAL_MODEL_H_
#define STAGE_LOCAL_LOCAL_MODEL_H_

#include <cstddef>
#include <istream>
#include <ostream>

#include "stage/gbt/ensemble.h"
#include "stage/local/training_pool.h"
#include "stage/plan/featurizer.h"

namespace stage::local {

struct LocalModelConfig {
  // K = 10 members, 200 estimators, depth 6, 20% validation split (§5.1).
  gbt::EnsembleConfig ensemble;
  // Targets are log1p(exec seconds); raw seconds under a Gaussian
  // likelihood would be dominated by the 300s+ tail and the uncertainty
  // would not be scale-free.
  bool log_target = true;
  // The paper's stated future work for closing Table 4's gap: "adding an
  // XGBoost model trained with absolute error into the Bayesian ensemble"
  // (§5.4). When enabled, one extra GBT member is trained with the MAE
  // objective and its output is blended into the point prediction (the
  // uncertainty decomposition still comes from the NLL ensemble alone).
  bool include_mae_member = false;
  double mae_member_weight = 0.5;  // Blend weight in target space.
};

// Stage 2 of the Stage predictor (§4.3): the instance-optimized "fuzzy
// cache" — a Bayesian ensemble of GBT models over the 33-dim plan vector
// with a calibrated prediction uncertainty (Eq. 1-2).
class LocalModel {
 public:
  explicit LocalModel(const LocalModelConfig& config);

  struct Output {
    double exec_seconds = 0.0;   // Point prediction in seconds.
    // Ensemble mean/uncertainty in target (log) space. log_std is the
    // routing signal: a multiplicative error bar on the prediction.
    double mean_target = 0.0;
    double model_variance = 0.0;
    double data_variance = 0.0;
    bool log_space = true;       // Target space of the fields above.
    double total_variance() const { return model_variance + data_variance; }
    double log_std() const;

    // Two-sided confidence interval on the exec-time in seconds, from the
    // Gaussian predictive distribution in target space. Downstream tasks
    // (materialized-view advisor, cluster scaling) consume these bounds
    // rather than the point estimate (paper §2.1, §3 "High-confidence
    // predictions"). `confidence` in (0, 1), e.g. 0.9.
    struct Interval {
      double lo_seconds = 0.0;
      double hi_seconds = 0.0;
    };
    Interval ConfidenceInterval(double confidence) const;
  };

  // (Re)trains the ensemble from the pool. No-op when the pool is empty.
  void Train(const TrainingPool& pool);

  bool trained() const { return trained_; }
  int trainings() const { return trainings_; }

  // Requires trained().
  Output Predict(const plan::PlanFeatures& features) const;

  // The NLL ensemble plus the MAE member (0 bytes when it is off).
  size_t MemoryBytes() const {
    return ensemble_.MemoryBytes() + mae_member_.MemoryBytes();
  }

  // Checkpointing of a trained local model (ensemble + target space) on
  // the SLCL v2 stream. Load rejects any other version, and a failed Load
  // leaves the model untouched.
  void Save(std::ostream& out) const;
  bool Load(std::istream& in);

 private:
  LocalModelConfig config_;
  gbt::BayesianGbtEnsemble ensemble_;
  gbt::GbdtModel mae_member_;  // Only used when include_mae_member.
  bool trained_ = false;
  int trainings_ = 0;
};

}  // namespace stage::local

#endif  // STAGE_LOCAL_LOCAL_MODEL_H_
