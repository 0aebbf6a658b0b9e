// Tests for the §4.8 calibration subsystem: the interval-calibration
// harness (coverage ladder, ECE, sentinel exclusion, per-source slices,
// obs exposition), the online conformal recalibrator (convergence,
// property tests, bit-for-bit snapshot round trip), and the predictor
// integration (scaled uncertainty, warm restart, all-or-nothing restore,
// concurrent readers vs the observing recalibrator — the latter is the
// TSan acceptance gate wired into tools/check.sh). Flag-on sync-replay
// parity of the fleet serving path is pinned by golden_routing_test.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "stage/calib/calibration.h"
#include "stage/calib/conformal.h"
#include "stage/common/rng.h"
#include "stage/common/stats.h"
#include "stage/core/stage_predictor.h"
#include "stage/fleet/fleet.h"
#include "stage/fleet_serve/fleet_service.h"
#include "stage/fleet_serve/tenant_stack.h"
#include "stage/obs/metrics.h"

namespace stage::calib {
namespace {

// ---------------------------------------------------------------------------
// NormalizedResidual + sentinel handling.

TEST(NormalizedResidualTest, ComputesLogSpaceZScore) {
  // |log1p(y) - log1p(mu)| / sigma with mu = e-1, y = e^2-1, sigma = 0.5:
  // |2 - 1| / 0.5 = 2.
  const double mu = std::expm1(1.0);
  const double y = std::expm1(2.0);
  EXPECT_NEAR(NormalizedResidual(mu, 0.5, y), 2.0, 1e-12);
  // Symmetric in the residual sign.
  EXPECT_NEAR(NormalizedResidual(y, 0.5, mu), 2.0, 1e-12);
  // Perfect prediction: zero residual.
  EXPECT_EQ(NormalizedResidual(3.0, 1.0, 3.0), 0.0);
}

TEST(NormalizedResidualTest, SentinelAndGarbageProduceNaN) {
  // The predictor stack's "uncertainty unavailable" sentinel.
  EXPECT_TRUE(std::isnan(NormalizedResidual(1.0, -1.0, 2.0)));
  EXPECT_TRUE(std::isnan(NormalizedResidual(1.0, 0.0, 2.0)));
  EXPECT_TRUE(std::isnan(NormalizedResidual(1.0, std::nan(""), 2.0)));
  EXPECT_TRUE(std::isnan(NormalizedResidual(-1.0, 0.5, 2.0)));
  EXPECT_TRUE(std::isnan(NormalizedResidual(1.0, 0.5, -2.0)));
  EXPECT_TRUE(std::isnan(
      NormalizedResidual(std::numeric_limits<double>::infinity(), 0.5, 2.0)));
}

TEST(NormalizedResidualTest, UsableLogStdMatchesSentinelContract) {
  EXPECT_TRUE(UsableLogStd(0.5));
  EXPECT_FALSE(UsableLogStd(-1.0));  // The core::Prediction default.
  EXPECT_FALSE(UsableLogStd(0.0));
  EXPECT_FALSE(UsableLogStd(std::nan("")));
  EXPECT_FALSE(UsableLogStd(std::numeric_limits<double>::infinity()));
}

// ---------------------------------------------------------------------------
// CalibrationHarness.

// Regression for the -1.0 sentinel: a cache/global-sourced prediction
// carries uncertainty_log_std = -1.0 and must be *excluded*, never scored
// as a (vacuously covered or uncovered) sigma = -1 interval.
TEST(CalibrationHarnessTest, SentinelSamplesAreExcludedNotScored) {
  CalibrationHarness harness;
  harness.Add({/*predicted_seconds=*/2.0, /*log_std=*/-1.0,
               /*actual_seconds=*/2.0, /*source=*/0});
  EXPECT_EQ(harness.total(), 1u);
  EXPECT_EQ(harness.usable(), 0u);
  EXPECT_EQ(harness.excluded(), 1u);
  CalibrationReport report = harness.Report();
  for (uint64_t covered : report.covered) EXPECT_EQ(covered, 0u);
  EXPECT_EQ(report.ece, 0.0);

  // Mixing in usable samples: the sentinel stays out of the denominator.
  harness.Add({2.0, 0.5, 2.0, 1});  // Perfectly covered at every level.
  report = harness.Report();
  EXPECT_EQ(report.total, 2u);
  EXPECT_EQ(report.usable, 1u);
  EXPECT_EQ(report.excluded, 1u);
  for (size_t i = 0; i < report.levels.size(); ++i) {
    EXPECT_EQ(report.observed[i], 1.0) << "level " << report.levels[i];
  }
}

TEST(CalibrationHarnessTest, ExactCoverageOnSyntheticGaussian) {
  // Ground truth drawn exactly from the predicted distribution:
  // log1p(y) = log1p(mu) + sigma * N(0,1). Observed coverage must match
  // the nominal ladder within sampling noise.
  constexpr int kSamples = 20000;
  // Large mu: log1p(mu) ~ 4.6, so a -4.6/0.8 sigma draw (p ~ 5e-9) would
  // be needed to produce a negative-seconds sample the harness excludes.
  constexpr double kMu = 100.0;
  constexpr double kSigma = 0.8;
  CalibrationHarness harness;
  Rng rng(1234);
  for (int i = 0; i < kSamples; ++i) {
    const double log_y = std::log1p(kMu) + kSigma * rng.NextGaussian();
    harness.Add({kMu, kSigma, std::expm1(log_y), 0});
  }
  const CalibrationReport report = harness.Report();
  ASSERT_EQ(report.usable, static_cast<uint64_t>(kSamples));
  for (size_t i = 0; i < report.levels.size(); ++i) {
    // 3-sigma binomial tolerance plus a small floor.
    const double p = report.levels[i];
    const double tolerance =
        3.0 * std::sqrt(p * (1.0 - p) / kSamples) + 0.005;
    EXPECT_NEAR(report.observed[i], p, tolerance)
        << "level " << report.levels[i];
  }
  EXPECT_LT(report.ece, 0.02);
  EXPECT_LT(report.CoverageErrorAt(0.9), 0.02);
}

TEST(CalibrationHarnessTest, DetectsMiscalibratedSigma) {
  // Reported sigma is 2x the true spread: intervals are too wide, so
  // observed coverage overshoots every nominal level.
  constexpr int kSamples = 8000;
  constexpr double kMu = 100.0;
  constexpr double kTrueSigma = 0.5;
  CalibrationHarness harness;
  Rng rng(77);
  for (int i = 0; i < kSamples; ++i) {
    const double log_y = std::log1p(kMu) + kTrueSigma * rng.NextGaussian();
    harness.Add({kMu, 2.0 * kTrueSigma, std::expm1(log_y), 0});
  }
  const CalibrationReport report = harness.Report();
  // At nominal 50%, the doubled sigma covers ~2*Phi(2*0.674)-1 ~= 0.82.
  EXPECT_GT(report.observed[0], 0.75);
  EXPECT_GT(report.ece, 0.05);
  EXPECT_GT(report.CoverageErrorAt(0.9), 0.02);
}

TEST(CalibrationHarnessTest, PerSourceBreakdown) {
  CalibrationHarness harness;
  // Source 1: covered at every level. Source 2: far outside every level.
  harness.Add({2.0, 0.5, 2.0, 1});
  harness.Add({2.0, 0.5, 2.0, 1});
  harness.Add({1.0, 0.1, 500.0, 2});
  // Out-of-range sources fall into slot 0 instead of corrupting memory.
  harness.Add({2.0, 0.5, 2.0, 97});
  harness.Add({2.0, 0.5, 2.0, -3});
  const CalibrationReport report = harness.Report();
  EXPECT_EQ(report.usable_by_source[1], 2u);
  EXPECT_EQ(report.usable_by_source[2], 1u);
  EXPECT_EQ(report.usable_by_source[0], 2u);
  for (size_t i = 0; i < report.levels.size(); ++i) {
    EXPECT_EQ(report.covered_by_source[1][i], 2u);
    EXPECT_EQ(report.covered_by_source[2][i], 0u);
  }
}

TEST(CalibrationHarnessTest, JsonReportIsStructuredAndConsistent) {
  CalibrationHarness harness;
  harness.Add({2.0, 0.5, 2.1, 1});
  harness.Add({2.0, -1.0, 2.1, 0});  // Excluded sentinel.
  const std::string json = harness.Report().ToJson();
  EXPECT_NE(json.find("\"total\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"usable\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"excluded\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ece\""), std::string::npos);
  EXPECT_NE(json.find("\"nominal\": 0.900000"), std::string::npos);
  EXPECT_NE(json.find("\"usable_by_source\""), std::string::npos);
}

TEST(CalibrationHarnessTest, MetricsExposition) {
  obs::MetricsRegistry registry;
  {
    CalibrationHarness harness;
    harness.RegisterMetrics(&registry, "stage_calibration_");
    harness.Add({2.0, 0.5, 2.1, 1});
    harness.Add({2.0, -1.0, 2.1, 0});
    const std::string text = registry.RenderText();
    std::string error;
    ASSERT_TRUE(obs::ValidateTextExposition(text, &error)) << error;
    EXPECT_NE(text.find("stage_calibration_samples_total 2"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("stage_calibration_samples_excluded_total 1"),
              std::string::npos);
    EXPECT_NE(text.find("stage_calibration_coverage_ratio{level=\"0.90\"}"),
              std::string::npos);
  }
  // The harness unregistered its callbacks on destruction: rendering after
  // it died must not touch freed state.
  const std::string after = registry.RenderText();
  EXPECT_EQ(after.find("stage_calibration_"), std::string::npos);
}

TEST(CalibrationConfigTest, ValidateRejectsBadLevels) {
  CalibrationConfig config;
  config.levels = {};
  EXPECT_FALSE(config.Validate().empty());
  config.levels = {0.5, 1.0};
  EXPECT_FALSE(config.Validate().empty());
  config.levels = {0.5, std::nan("")};
  EXPECT_FALSE(config.Validate().empty());
  config.levels = {0.5, 0.9};
  config.num_sources = 0;
  EXPECT_FALSE(config.Validate().empty());
  config.num_sources = 4;
  EXPECT_TRUE(config.Validate().empty());
}

// ---------------------------------------------------------------------------
// ConformalRecalibrator.

TEST(ConformalRecalibratorTest, IdentityUntilMinWindow) {
  ConformalConfig config;
  config.min_window = 16;
  ConformalRecalibrator recalibrator(config);
  for (int i = 0; i < 15; ++i) {
    recalibrator.Observe(1.0);
    EXPECT_EQ(recalibrator.scale(), 1.0) << "observation " << i;
  }
  recalibrator.Observe(1.0);  // 16th: first refresh.
  EXPECT_NE(recalibrator.scale(), 1.0);
  EXPECT_EQ(recalibrator.window_size(), 16u);
  EXPECT_EQ(recalibrator.observations(), 16u);
  EXPECT_GE(recalibrator.refreshes(), 1u);
}

TEST(ConformalRecalibratorTest, IgnoresSentinelAndGarbageResiduals) {
  ConformalConfig config;
  config.min_window = 4;
  ConformalRecalibrator recalibrator(config);
  recalibrator.Observe(std::nan(""));
  recalibrator.Observe(-1.0);
  recalibrator.Observe(std::numeric_limits<double>::infinity());
  EXPECT_EQ(recalibrator.window_size(), 0u);
  EXPECT_EQ(recalibrator.observations(), 0u);
  EXPECT_EQ(recalibrator.scale(), 1.0);
}

TEST(ConformalRecalibratorTest, ConvergesToUnitScaleOnCalibratedResiduals) {
  // |N(0,1)| residuals are what a perfectly calibrated sigma produces; the
  // published scale must settle near 1.
  ConformalConfig config;
  config.window_capacity = 1024;
  ConformalRecalibrator recalibrator(config);
  Rng rng(11);
  for (int i = 0; i < 4000; ++i) {
    recalibrator.Observe(std::abs(rng.NextGaussian()));
  }
  EXPECT_NEAR(recalibrator.scale(), 1.0, 0.15);
}

TEST(ConformalRecalibratorTest, RecoversKnownSigmaUnderestimate) {
  // Residuals 3x too large == sigma reported 3x too small; the corrective
  // scale must settle near 3.
  ConformalConfig config;
  config.window_capacity = 1024;
  ConformalRecalibrator recalibrator(config);
  Rng rng(12);
  for (int i = 0; i < 4000; ++i) {
    recalibrator.Observe(3.0 * std::abs(rng.NextGaussian()));
  }
  EXPECT_NEAR(recalibrator.scale(), 3.0, 0.45);
}

// Property: the published scale is equivariant in the window contents —
// scaling every residual by c scales the quantile (hence the scale) by c.
TEST(ConformalRecalibratorProperty, ScaleEquivariance) {
  ConformalConfig config;
  config.window_capacity = 64;
  config.min_window = 64;
  config.refresh_interval = 1;
  Rng rng(31);
  std::vector<double> residuals;
  for (int i = 0; i < 64; ++i) residuals.push_back(rng.NextUniform(0.1, 3.0));

  ConformalRecalibrator base(config);
  ConformalRecalibrator scaled(config);
  constexpr double kFactor = 1.7;
  for (double z : residuals) {
    base.Observe(z);
    scaled.Observe(kFactor * z);
  }
  EXPECT_NEAR(scaled.scale(), kFactor * base.scale(),
              1e-12 * scaled.scale());
}

// Property: the scale depends only on the multiset in the window, not the
// insertion order (with refresh_interval 1 forcing a refresh per insert,
// the final refresh sees the identical full window).
TEST(ConformalRecalibratorProperty, InsertionOrderInvariance) {
  ConformalConfig config;
  config.window_capacity = 48;
  config.min_window = 48;
  config.refresh_interval = 1;
  Rng rng(57);
  std::vector<double> residuals;
  // Deliberate duplicates: order invariance must hold across ties too.
  for (int i = 0; i < 24; ++i) {
    const double z = rng.NextUniform(0.0, 2.0);
    residuals.push_back(z);
    residuals.push_back(z);
  }
  ConformalRecalibrator forward(config);
  for (double z : residuals) forward.Observe(z);

  for (int trial = 0; trial < 5; ++trial) {
    std::vector<size_t> order = rng.Permutation(residuals.size());
    ConformalRecalibrator shuffled(config);
    for (size_t index : order) shuffled.Observe(residuals[index]);
    EXPECT_EQ(shuffled.scale(), forward.scale()) << "trial " << trial;
  }
}

// Property: the window quantile — hence the scale — is monotone in the
// window contents: raising any residuals never lowers the scale.
TEST(ConformalRecalibratorProperty, MonotoneInWindowContents) {
  ConformalConfig config;
  config.window_capacity = 32;
  config.min_window = 32;
  config.refresh_interval = 1;
  Rng rng(91);
  for (int trial = 0; trial < 20; ++trial) {
    ConformalRecalibrator lower(config);
    ConformalRecalibrator upper(config);
    for (int i = 0; i < 32; ++i) {
      const double z = rng.NextUniform(0.0, 2.0);
      lower.Observe(z);
      upper.Observe(z + rng.NextUniform(0.0, 1.0));
    }
    EXPECT_GE(upper.scale(), lower.scale()) << "trial " << trial;
  }
}

TEST(ConformalRecalibratorTest, SlidingWindowForgetsOldRegime) {
  ConformalConfig config;
  config.window_capacity = 64;
  config.min_window = 32;
  config.refresh_interval = 1;
  ConformalRecalibrator recalibrator(config);
  for (int i = 0; i < 64; ++i) recalibrator.Observe(0.2);
  const double small_scale = recalibrator.scale();
  for (int i = 0; i < 64; ++i) recalibrator.Observe(4.0);
  const double large_scale = recalibrator.scale();
  EXPECT_GT(large_scale, small_scale);
  // The window holds only the new regime: the scale is exactly the one a
  // fresh window of 4.0s would publish.
  EXPECT_NEAR(large_scale, 4.0 / NormalQuantile(0.95), 1e-12);
}

TEST(ConformalRecalibratorTest, ScaleClampsApply) {
  ConformalConfig config;
  config.window_capacity = 32;
  config.min_window = 8;
  config.refresh_interval = 1;
  config.min_scale = 0.5;
  config.max_scale = 2.0;
  ConformalRecalibrator recalibrator(config);
  for (int i = 0; i < 32; ++i) recalibrator.Observe(1000.0);
  EXPECT_EQ(recalibrator.scale(), 2.0);
  for (int i = 0; i < 32; ++i) recalibrator.Observe(1e-9);
  EXPECT_EQ(recalibrator.scale(), 0.5);
}

TEST(ConformalRecalibratorTest, SaveLoadRoundTripsBitForBit) {
  ConformalConfig config;
  config.window_capacity = 96;
  config.min_window = 16;
  config.refresh_interval = 4;
  ConformalRecalibrator original(config);
  Rng rng(123);
  // 150 > capacity: the ring has wrapped, so head position matters.
  for (int i = 0; i < 150; ++i) {
    original.Observe(std::abs(rng.NextGaussian()));
  }
  std::ostringstream saved;
  original.Save(saved);

  ConformalRecalibrator restored(config);
  std::istringstream in(saved.str());
  ASSERT_TRUE(restored.Load(in));
  EXPECT_EQ(restored.scale(), original.scale());
  EXPECT_EQ(restored.window_size(), original.window_size());
  EXPECT_EQ(restored.observations(), original.observations());
  EXPECT_EQ(restored.refreshes(), original.refreshes());

  // Re-save: byte-identical stream.
  std::ostringstream resaved;
  restored.Save(resaved);
  EXPECT_EQ(resaved.str(), saved.str());

  // Warm-restart continuation: both instances fed the same future
  // residuals stay bit-for-bit in lockstep (window order included).
  for (int i = 0; i < 200; ++i) {
    const double z = std::abs(rng.NextGaussian());
    original.Observe(z);
    restored.Observe(z);
    ASSERT_EQ(restored.scale(), original.scale()) << "step " << i;
  }
}

TEST(ConformalRecalibratorTest, LoadRejectsMismatchAndLeavesStateUntouched) {
  ConformalConfig config;
  config.window_capacity = 32;
  config.min_window = 8;
  ConformalRecalibrator source(config);
  for (int i = 0; i < 32; ++i) source.Observe(2.0);
  std::ostringstream saved;
  source.Save(saved);

  // Capacity mismatch: the stream describes a different window shape.
  ConformalConfig other = config;
  other.window_capacity = 64;
  other.min_window = 8;
  ConformalRecalibrator mismatched(other);
  {
    std::istringstream in(saved.str());
    EXPECT_FALSE(mismatched.Load(in));
    EXPECT_EQ(mismatched.scale(), 1.0);
    EXPECT_EQ(mismatched.window_size(), 0u);
  }

  // Truncation at every byte boundary: clean false, state untouched.
  const std::string bytes = saved.str();
  ConformalRecalibrator target(config);
  for (int i = 0; i < 16; ++i) target.Observe(0.7);
  const double scale_before = target.scale();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    std::istringstream in(bytes.substr(0, cut));
    ASSERT_FALSE(target.Load(in)) << "accepted truncation at byte " << cut;
    ASSERT_EQ(target.scale(), scale_before) << "state leak at byte " << cut;
  }
  // The intact stream still loads.
  std::istringstream in(bytes);
  EXPECT_TRUE(target.Load(in));
  EXPECT_EQ(target.scale(), source.scale());
}

TEST(ConformalConfigTest, ValidateRejectsEveryBadKnob) {
  const auto broken = [](auto mutate) {
    ConformalConfig config;
    mutate(config);
    return config.Validate();
  };
  EXPECT_NE(broken([](ConformalConfig& c) { c.window_capacity = 0; }), "");
  EXPECT_NE(broken([](ConformalConfig& c) { c.min_window = 0; }), "");
  EXPECT_NE(broken([](ConformalConfig& c) {
              c.window_capacity = 8;
              c.min_window = 9;
            }),
            "");
  EXPECT_NE(broken([](ConformalConfig& c) { c.anchor_confidence = 0.0; }), "");
  EXPECT_NE(broken([](ConformalConfig& c) { c.anchor_confidence = 1.0; }), "");
  EXPECT_NE(
      broken([](ConformalConfig& c) { c.anchor_confidence = std::nan(""); }),
      "");
  EXPECT_NE(broken([](ConformalConfig& c) { c.refresh_interval = 0; }), "");
  EXPECT_NE(broken([](ConformalConfig& c) { c.min_scale = 0.0; }), "");
  EXPECT_NE(broken([](ConformalConfig& c) { c.min_scale = std::nan(""); }), "");
  EXPECT_NE(broken([](ConformalConfig& c) { c.max_scale = 0.1; }), "");
  EXPECT_EQ(ConformalConfig{}.Validate(), "");
}

// ---------------------------------------------------------------------------
// Satellite fix: Config::Validate must reject NaN thresholds (NaN compares
// false against every bound, so the old `< 0.0` checks accepted it).

TEST(StagePredictorConfigValidation, RejectsNaNAndNegativeThresholds) {
  core::StagePredictorConfig config;
  EXPECT_EQ(config.Validate(), "");
  config.uncertainty_log_std_threshold = std::nan("");
  EXPECT_NE(config.Validate(), "");
  config.uncertainty_log_std_threshold =
      std::numeric_limits<double>::infinity();
  EXPECT_NE(config.Validate(), "");
  config.uncertainty_log_std_threshold = -0.5;
  EXPECT_NE(config.Validate(), "");
  config.uncertainty_log_std_threshold = 1.0;
  config.short_running_seconds = std::nan("");
  EXPECT_NE(config.Validate(), "");
  config.short_running_seconds = 5.0;
  // The conformal knobs validate through the predictor config too.
  config.conformal.anchor_confidence = 2.0;
  EXPECT_NE(config.Validate(), "");
}

TEST(CalibValidationDeathTest, PredictorConstructionDiesOnNaNThreshold) {
  core::StagePredictorConfig config;
  config.uncertainty_log_std_threshold = std::nan("");
  EXPECT_DEATH(core::StagePredictor predictor(config),
               "uncertainty_log_std_threshold");
}

TEST(CalibValidationDeathTest, PredictorConstructionDiesOnBadConformal) {
  core::StagePredictorConfig config;
  config.calibrate_uncertainty = true;
  config.conformal.min_window = 0;
  EXPECT_DEATH(core::StagePredictor predictor(config),
               "conformal.min_window");
}

// ---------------------------------------------------------------------------
// Predictor integration.

core::StagePredictorConfig CalibStageConfig(bool calibrate) {
  core::StagePredictorConfig config;
  config.local.ensemble.num_members = 2;
  config.local.ensemble.member.num_rounds = 10;
  config.local.ensemble.member.max_depth = 3;
  config.cache.capacity = 200;
  config.pool.capacity = 96;
  config.min_train_size = 40;
  config.retrain_interval = 200;
  config.short_running_seconds = 2.0;
  config.uncertainty_log_std_threshold = 0.6;
  config.calibrate_uncertainty = calibrate;
  config.conformal.window_capacity = 128;
  config.conformal.min_window = 32;
  config.conformal.refresh_interval = 8;
  return config;
}

const fleet::InstanceTrace& CalibWorkload() {
  static const fleet::InstanceTrace* trace = [] {
    fleet::FleetConfig config;
    config.num_instances = 1;
    config.workload.num_queries = 2000;
    config.seed = 314;
    fleet::FleetGenerator generator(config);
    return new fleet::InstanceTrace(generator.MakeInstanceTrace(0));
  }();
  return *trace;
}

template <typename Predictor>
void ReplayAll(Predictor& predictor) {
  for (const fleet::QueryEvent& event : CalibWorkload().trace) {
    const core::QueryContext context =
        core::MakeQueryContext(event.plan, event.concurrent_queries,
                               static_cast<uint64_t>(event.arrival_ms));
    predictor.Predict(context);
    predictor.Observe(context, event.exec_seconds);
  }
}

TEST(CalibratedPredictorTest, ReportedUncertaintyIsScaledRawSigma) {
  core::StagePredictor baseline(CalibStageConfig(false));
  core::StagePredictor calibrated(CalibStageConfig(true));
  ReplayAll(baseline);
  ReplayAll(calibrated);

  ASSERT_NE(calibrated.recalibrator(), nullptr);
  EXPECT_EQ(baseline.recalibrator(), nullptr);
  const double scale = calibrated.conformal_scale();
  ASSERT_GT(calibrated.recalibrator()->observations(), 100u);
  // On this workload the raw ensemble sigma is not perfectly calibrated,
  // so a real correction must have engaged.
  EXPECT_NE(scale, 1.0);

  // Identical replays -> identical caches/models (sigma scaling changes no
  // observed state), so any local-routed prediction differs only by the
  // scale factor in its reported uncertainty.
  int compared = 0;
  for (const fleet::QueryEvent& event : CalibWorkload().trace) {
    const core::QueryContext context =
        core::MakeQueryContext(event.plan, event.concurrent_queries,
                               static_cast<uint64_t>(event.arrival_ms));
    const core::Prediction base = baseline.Predict(context);
    const core::Prediction calib = calibrated.Predict(context);
    if (base.source == core::PredictionSource::kLocal &&
        calib.source == core::PredictionSource::kLocal) {
      EXPECT_DOUBLE_EQ(calib.uncertainty_log_std,
                       base.uncertainty_log_std * scale);
      ++compared;
    }
    if (compared >= 50) break;
  }
  EXPECT_GT(compared, 0);
}

fleet_serve::TenantStackConfig CalibStackConfig(bool calibrate) {
  fleet_serve::TenantStackConfig config;
  config.predictor = CalibStageConfig(calibrate);
  return config;
}

TEST(CalibratedPredictorTest, CheckpointWarmRestartPreservesWindow) {
  fleet_serve::TenantStack original(CalibStackConfig(true));

  const auto& trace = CalibWorkload().trace;
  const size_t half = trace.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    const core::QueryContext context = core::MakeQueryContext(
        trace[i].plan, trace[i].concurrent_queries,
        static_cast<uint64_t>(trace[i].arrival_ms));
    original.Predict(context);
    original.Observe(context, trace[i].exec_seconds);
  }
  std::ostringstream checkpoint;
  ASSERT_TRUE(original.SaveState(checkpoint));

  fleet_serve::TenantStack restored(CalibStackConfig(true));
  std::istringstream in(checkpoint.str());
  ASSERT_TRUE(restored.LoadState(in));
  ASSERT_NE(restored.recalibrator(), nullptr);
  EXPECT_EQ(restored.conformal_scale(), original.conformal_scale());
  EXPECT_EQ(restored.recalibrator()->observations(),
            original.recalibrator()->observations());

  // Continue both replays: bit-for-bit identical predictions and scales.
  for (size_t i = half; i < trace.size(); ++i) {
    const core::QueryContext context = core::MakeQueryContext(
        trace[i].plan, trace[i].concurrent_queries,
        static_cast<uint64_t>(trace[i].arrival_ms));
    const core::Prediction a = original.Predict(context);
    const core::Prediction b = restored.Predict(context);
    ASSERT_EQ(a.seconds, b.seconds);
    ASSERT_EQ(a.uncertainty_log_std, b.uncertainty_log_std);
    original.Observe(context, trace[i].exec_seconds);
    restored.Observe(context, trace[i].exec_seconds);
  }
  EXPECT_EQ(restored.conformal_scale(), original.conformal_scale());

  // A flag-on stack loads a flag-off stream as truncated: clean false.
  fleet_serve::TenantStack flag_off(CalibStackConfig(false));
  std::ostringstream off_checkpoint;
  ASSERT_TRUE(flag_off.SaveState(off_checkpoint));
  fleet_serve::TenantStack flag_on(CalibStackConfig(true));
  std::istringstream off_in(off_checkpoint.str());
  EXPECT_FALSE(flag_on.LoadState(off_in));
}

// LoadState is all-or-nothing: a calibration-off stream fails only at its
// (missing) last section when loaded into a calibration-on stack, and by
// then every earlier section has been parsed. None of them may have been
// applied — cache, pool, model and predictions stay exactly as they were.
TEST(CalibratedPredictorTest, FailedLoadLeavesStackUntouched) {
  const auto& trace = CalibWorkload().trace;
  const auto context_at = [&](size_t i) {
    return core::MakeQueryContext(trace[i].plan, trace[i].concurrent_queries,
                                  static_cast<uint64_t>(trace[i].arrival_ms));
  };
  // Different halves of the trace, so the two states differ everywhere.
  fleet_serve::TenantStack source(CalibStackConfig(false));
  for (size_t i = trace.size() / 2; i < trace.size(); ++i) {
    source.Observe(context_at(i), trace[i].exec_seconds);
  }
  fleet_serve::TenantStack target(CalibStackConfig(true));
  for (size_t i = 0; i < 150; ++i) {  // Cache not yet full (capacity 200).
    target.Observe(context_at(i), trace[i].exec_seconds);
  }
  std::vector<core::Prediction> before;
  for (size_t i = 0; i < trace.size(); i += 7) {
    before.push_back(target.Predict(context_at(i)));
  }
  const size_t cache_entries = target.exec_time_cache().size();
  const size_t pool_entries = target.pool_size();
  const auto model = target.local_model_snapshot();
  const int trainings = target.trainings();

  std::ostringstream saved;
  ASSERT_TRUE(source.SaveState(saved));
  ASSERT_NE(source.exec_time_cache().size(), cache_entries);
  std::istringstream in(saved.str());
  std::string error;
  EXPECT_FALSE(target.LoadState(in, &error));
  EXPECT_NE(error.find("recalibrator"), std::string::npos) << error;

  EXPECT_EQ(target.exec_time_cache().size(), cache_entries);
  EXPECT_EQ(target.pool_size(), pool_entries);
  EXPECT_EQ(target.local_model_snapshot(), model);
  EXPECT_EQ(target.trainings(), trainings);
  size_t at = 0;
  for (size_t i = 0; i < trace.size(); i += 7, ++at) {
    const core::Prediction after = target.Predict(context_at(i));
    ASSERT_EQ(after.seconds, before[at].seconds) << i;
    ASSERT_EQ(after.source, before[at].source) << i;
  }
}

// TSan acceptance gate (tools/check.sh runs this filter in the tsan lane):
// reader threads predict lock-free off the atomic scale while a writer
// session feeds completions through the recalibrator.
TEST(CalibConcurrencyTest, ReadersPredictWhileRecalibratorObserves) {
  fleet_serve::FleetServiceConfig config;
  config.stack.predictor = CalibStageConfig(true);
  config.async_retrain = true;
  fleet_serve::FleetService service(config);
  constexpr fleet_serve::TenantId kTenant = 0;
  service.RegisterTenant(kTenant);
  const std::shared_ptr<fleet_serve::TenantStack> stack =
      service.PinTenant(kTenant);

  const auto& trace = CalibWorkload().trace;
  std::vector<core::QueryContext> contexts;
  contexts.reserve(trace.size());
  for (const fleet::QueryEvent& event : trace) {
    contexts.push_back(
        core::MakeQueryContext(event.plan, event.concurrent_queries,
                               static_cast<uint64_t>(event.arrival_ms)));
  }

  // Warm-up pass: the recalibrator only sees residuals once a local model
  // is published, and async trainings race a fast replay. One full pass
  // plus a barrier guarantees the concurrent phase runs with a trained
  // model (and therefore actually exercises the scale refresh path).
  for (size_t i = 0; i < trace.size(); ++i) {
    service.Observe(kTenant, contexts[i], trace[i].exec_seconds);
  }
  service.WaitForRetrain();
  ASSERT_GT(stack->trainings(), 0);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  constexpr int kReaders = 4;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      size_t i = static_cast<size_t>(r);
      while (!stop.load(std::memory_order_relaxed)) {
        stack->Predict(contexts[i % contexts.size()]);
        i += kReaders;
      }
    });
  }
  // Writer: the full replay observes every completion (feeding the
  // recalibrator under the observe lock) while readers hammer Predict.
  for (size_t i = 0; i < trace.size(); ++i) {
    service.Observe(kTenant, contexts[i], trace[i].exec_seconds);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();
  service.WaitForRetrain();

  const double scale = stack->conformal_scale();
  EXPECT_TRUE(std::isfinite(scale));
  EXPECT_GE(scale, config.stack.predictor.conformal.min_scale);
  EXPECT_LE(scale, config.stack.predictor.conformal.max_scale);
  EXPECT_GT(stack->recalibrator()->observations(), 0u);
}

}  // namespace
}  // namespace stage::calib
