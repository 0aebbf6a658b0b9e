#include "stage/gbt/ensemble.h"

#include <algorithm>
#include <cmath>

#include "stage/common/macros.h"
#include "stage/common/serialize.h"
#include "stage/gbt/loss.h"

namespace stage::gbt {

namespace {

// Member outputs are (mu, log sigma^2) from the Gaussian-NLL loss.
constexpr int kMemberOutputs = 2;

double ClampedVariance(double log_variance) {
  return std::exp(std::clamp(log_variance, -12.0, 12.0));
}

}  // namespace

GbdtConfig BayesianGbtEnsemble::MemberConfig(const EnsembleConfig& config,
                                             int k) {
  GbdtConfig member_config = config.member;
  // Distinct seeds give each member its own bagging draws and its own
  // early-stopping split; that independence is what makes the variance of
  // member means a usable model-uncertainty signal.
  member_config.seed = config.member.seed +
                       0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(k + 1);
  return member_config;
}

BayesianGbtEnsemble BayesianGbtEnsemble::Train(const Dataset& data,
                                               const EnsembleConfig& config,
                                               ThreadPool* pool) {
  STAGE_CHECK(config.num_members >= 1);
  BayesianGbtEnsemble ensemble;
  ensemble.members_.resize(config.num_members);

  auto train_member = [&](size_t k) {
    const auto loss = MakeGaussianNllLoss();
    ensemble.members_[k] = GbdtModel::Train(
        data, *loss, MemberConfig(config, static_cast<int>(k)));
  };

  if (config.parallel_train && config.num_members > 1) {
    // Bounded, reusable workers instead of num_members raw std::threads:
    // several ensembles training at once (background retrains across
    // instances) share one pool sized to the hardware.
    ThreadPool& workers = pool != nullptr ? *pool : ThreadPool::Shared();
    workers.ParallelFor(static_cast<size_t>(config.num_members), train_member);
  } else {
    for (int k = 0; k < config.num_members; ++k) {
      train_member(static_cast<size_t>(k));
    }
  }
  return ensemble;
}

BayesianGbtEnsemble::Prediction BayesianGbtEnsemble::Predict(
    const float* row) const {
  STAGE_CHECK(!members_.empty());
  const double k = static_cast<double>(members_.size());

  Prediction out;
  double sum_mu = 0.0;
  double sum_mu_sq = 0.0;
  double sum_var = 0.0;
  double pred[kMemberOutputs];
  for (const GbdtModel& member : members_) {
    STAGE_DCHECK(member.num_outputs() == kMemberOutputs);
    member.PredictInto(row, pred);
    const double mu = pred[0];
    const double sigma_sq = ClampedVariance(pred[1]);
    sum_mu += mu;
    sum_mu_sq += mu * mu;
    sum_var += sigma_sq;
  }
  out.mean = sum_mu / k;                                       // Eq. 1.
  out.model_variance = std::max(0.0, sum_mu_sq / k - out.mean * out.mean);
  out.data_variance = sum_var / k;                             // Eq. 2.
  return out;
}

size_t BayesianGbtEnsemble::MemoryBytes() const {
  size_t bytes = 0;
  for (const GbdtModel& member : members_) bytes += member.MemoryBytes();
  return bytes;
}

std::vector<double> BayesianGbtEnsemble::FeatureImportance() const {
  STAGE_CHECK(!members_.empty());
  const size_t num_features =
      static_cast<size_t>(members_[0].num_features());
  std::vector<double> importance(num_features, 0.0);
  // One reused counts buffer instead of a temporary vector per member; the
  // result is the same mean of per-member normalized importances.
  std::vector<double> member_counts(num_features);
  for (const GbdtModel& member : members_) {
    std::fill(member_counts.begin(), member_counts.end(), 0.0);
    const double total = member.AddSplitCounts(member_counts);
    if (total <= 0.0) continue;
    for (size_t f = 0; f < num_features; ++f) {
      importance[f] += member_counts[f] / total;
    }
  }
  for (double& v : importance) v /= static_cast<double>(members_.size());
  return importance;
}

void BayesianGbtEnsemble::Save(std::ostream& out) const {
  WritePod<uint64_t>(out, members_.size());
  for (const GbdtModel& member : members_) member.Save(out);
}

bool BayesianGbtEnsemble::Load(std::istream& in) {
  uint64_t count = 0;
  if (!ReadPod(in, &count) || count == 0 || count > 1024) return false;
  std::vector<GbdtModel> members(count);
  for (GbdtModel& member : members) {
    if (!member.Load(in)) return false;
  }
  members_ = std::move(members);
  return true;
}

}  // namespace stage::gbt
