#include "stage/local/local_model.h"

#include <algorithm>
#include <cmath>

#include "stage/common/macros.h"
#include "stage/common/serialize.h"
#include "stage/common/stats.h"
#include "stage/gbt/loss.h"

namespace stage::local {

LocalModel::LocalModel(const LocalModelConfig& config) : config_(config) {}

double LocalModel::Output::log_std() const {
  return std::sqrt(std::max(0.0, total_variance()));
}

LocalModel::Output::Interval LocalModel::Output::ConfidenceInterval(
    double confidence) const {
  STAGE_CHECK(confidence > 0.0 && confidence < 1.0);
  const double z = NormalQuantile(0.5 + confidence / 2.0);
  const double spread = z * std::sqrt(std::max(0.0, total_variance()));
  Interval interval;
  if (log_space) {
    interval.lo_seconds =
        std::max(0.0, std::expm1(std::clamp(mean_target - spread, 0.0, 14.0)));
    interval.hi_seconds =
        std::max(0.0, std::expm1(std::clamp(mean_target + spread, 0.0, 14.0)));
  } else {
    interval.lo_seconds = std::max(0.0, mean_target - spread);
    interval.hi_seconds = std::max(0.0, mean_target + spread);
  }
  return interval;
}

void LocalModel::Train(const TrainingPool& pool) {
  if (pool.size() == 0) return;
  const gbt::Dataset data = pool.BuildDataset(config_.log_target);
  ensemble_ = gbt::BayesianGbtEnsemble::Train(data, config_.ensemble);
  if (config_.include_mae_member) {
    const auto mae_loss = gbt::MakeAbsoluteLoss();
    gbt::GbdtConfig mae_config = config_.ensemble.member;
    mae_config.seed ^= 0xABCDEF12345ULL;
    mae_member_ = gbt::GbdtModel::Train(data, *mae_loss, mae_config);
  }
  trained_ = true;
  ++trainings_;
}

LocalModel::Output LocalModel::Predict(
    const plan::PlanFeatures& features) const {
  STAGE_CHECK(trained_);
  const gbt::BayesianGbtEnsemble::Prediction pred =
      ensemble_.Predict(features.data());
  Output out;
  out.mean_target = pred.mean;
  if (config_.include_mae_member) {
    // Blend the MAE-trained member's point estimate into the mean; the
    // uncertainty decomposition stays with the NLL ensemble (Eq. 2).
    const double w = config_.mae_member_weight;
    out.mean_target =
        (1.0 - w) * pred.mean + w * mae_member_.PredictScalar(features.data());
  }
  out.model_variance = pred.model_variance;
  out.data_variance = pred.data_variance;
  out.log_space = config_.log_target;
  if (config_.log_target) {
    out.exec_seconds =
        std::max(0.0, std::expm1(std::clamp(out.mean_target, 0.0, 14.0)));
  } else {
    out.exec_seconds = std::max(0.0, out.mean_target);
  }
  return out;
}

namespace {
constexpr uint32_t kLocalMagic = 0x534c434c;  // "SLCL".
// v2 persists the MAE member and its blend weight, which v1 never wrote.
// Only v2 loads: every v1 stream holds SGBT v1 members, which
// GbdtModel::Load rejects.
constexpr uint32_t kLocalVersion = 2;
}  // namespace

void LocalModel::Save(std::ostream& out) const {
  STAGE_CHECK_MSG(trained_, "cannot save an untrained local model");
  WriteHeader(out, kLocalMagic, kLocalVersion);
  WritePod<uint8_t>(out, config_.log_target ? 1 : 0);
  WritePod<uint8_t>(out, config_.include_mae_member ? 1 : 0);
  WritePod(out, config_.mae_member_weight);
  ensemble_.Save(out);
  if (config_.include_mae_member) mae_member_.Save(out);
}

bool LocalModel::Load(std::istream& in) {
  if (!ReadHeader(in, kLocalMagic, kLocalVersion)) return false;
  uint8_t log_target = 0;
  uint8_t include_mae = 0;
  double mae_weight = 0.0;
  if (!ReadPod(in, &log_target) || !ReadPod(in, &include_mae) ||
      !ReadPod(in, &mae_weight) ||
      !(mae_weight >= 0.0 && mae_weight <= 1.0)) {
    return false;
  }
  // Load into locals and commit only on full success: a failed Load must
  // never leave a half-replaced (yet still trained()) model behind.
  gbt::BayesianGbtEnsemble ensemble;
  if (!ensemble.Load(in)) return false;
  gbt::GbdtModel mae_member;
  if (include_mae != 0 && !mae_member.Load(in)) return false;
  // Every predict hands each member one plan-feature row, so a member
  // trained on any other width would read past it (or ignore part of it).
  for (const gbt::GbdtModel& member : ensemble.members()) {
    if (member.num_features() != plan::kPlanFeatureDim) return false;
  }
  if (include_mae != 0 && mae_member.num_features() != plan::kPlanFeatureDim) {
    return false;
  }
  ensemble_ = std::move(ensemble);
  mae_member_ = std::move(mae_member);
  config_.log_target = log_target != 0;
  config_.include_mae_member = include_mae != 0;
  config_.mae_member_weight = mae_weight;
  trained_ = true;
  return true;
}

}  // namespace stage::local
