// Calibration bench (§4.8 acceptance): measures what the online conformal
// recalibrator buys on the paper workload, four ways:
//
//   1. Interval coverage, prequential: one flag-off replay per instance;
//      each local prediction is scored TWICE — once with the raw ensemble
//      log_std ("pre") and once with log_std scaled by a shadow
//      recalibrator's current scale ("post") — then its normalized
//      residual feeds the shadow. Pre and post therefore see the exact
//      same prediction stream, and "post" is an honest online estimate
//      (every sample scored with a scale fit on strictly earlier data).
//      GATE: |coverage@90 - 0.90| must shrink post-recalibration.
//   2. Routing-mix shift: flag-off vs flag-on replays side by side —
//      how many predictions each stage serves once the confidence check
//      sees calibrated uncertainty.
//   3. Tail MAE: absolute error on long-running queries (true exec-time
//      >= short_running_seconds), flag-off vs flag-on. Reported, not
//      gated — the paper's claim is about interval honesty, not point
//      accuracy.
//   4. Hot-path overhead: warm-service single-prediction p50, flag-off vs
//      flag-on (one extra relaxed atomic load + multiply on the local
//      path). Every round builds and warms a fresh pair of stacks, then
//      times both; rounds alternate which side is built and timed first.
//      GATE: the median of the per-round p50 ratios (on / off) is at most
//      1.03.
//
// Results land in BENCH_calibration.json (with a "gates" object, same
// shape as BENCH_wlm_closed_loop.json). STAGE_BENCH_FAST=1 shrinks the
// workload for the tools/check.sh smoke lane.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "stage/calib/calibration.h"
#include "stage/calib/conformal.h"
#include "stage/common/stats.h"
#include "stage/metrics/report.h"
#include "stage/fleet_serve/tenant_stack.h"
#include "stage/obs/trace.h"

using namespace stage;

namespace {

calib::ConformalConfig BenchConformalConfig() {
  calib::ConformalConfig config;
  config.window_capacity = 512;
  config.min_window = 32;
  config.refresh_interval = 16;
  config.anchor_confidence = 0.9;
  return config;
}

core::StagePredictorConfig CalibratedConfig() {
  core::StagePredictorConfig config = bench::PaperStageConfig();
  config.calibrate_uncertainty = true;
  config.conformal = BenchConformalConfig();
  return config;
}

std::vector<core::QueryContext> MakeContexts(
    const fleet::InstanceTrace& instance) {
  std::vector<core::QueryContext> contexts;
  contexts.reserve(instance.trace.size());
  for (const fleet::QueryEvent& event : instance.trace) {
    contexts.push_back(core::MakeQueryContext(
        event.plan, event.concurrent_queries,
        static_cast<uint64_t>(event.arrival_ms)));
  }
  return contexts;
}

// Flag-off vs flag-on replay outcome for one config (phases 2 + 3).
struct ReplayOutcome {
  uint64_t source_counts[core::kNumPredictionSources] = {};
  uint64_t escalations = 0;
  std::vector<double> tail_abs_errors;  // Long-running queries only.
};

ReplayOutcome ReplayWithConfig(const core::StagePredictorConfig& config,
                               const fleet::InstanceTrace& instance,
                               const std::vector<core::QueryContext>& contexts,
                               const global::GlobalModel* global_model) {
  core::StagePredictorOptions options;
  options.global_model = global_model;
  options.instance = &instance.config;
  core::StagePredictor predictor(config, options);
  ReplayOutcome outcome;
  for (size_t i = 0; i < contexts.size(); ++i) {
    obs::PredictionTrace trace;
    const core::Prediction prediction =
        predictor.PredictTraced(contexts[i], &trace);
    const double actual = instance.trace[i].exec_seconds;
    predictor.Observe(contexts[i], actual);
    if (trace.escalated) ++outcome.escalations;
    if (actual >= config.short_running_seconds) {
      outcome.tail_abs_errors.push_back(
          std::fabs(prediction.seconds - actual));
    }
  }
  for (int s = 0; s < core::kNumPredictionSources; ++s) {
    outcome.source_counts[s] = predictor.predictions_from(
        static_cast<core::PredictionSource>(s));
  }
  return outcome;
}

// A warm service stack for phase 4, bench_serve_overhead pattern: replayed
// once to train and fill before any timing.
std::unique_ptr<fleet_serve::TenantStack> WarmStack(
    const core::StagePredictorConfig& config,
    const fleet::InstanceTrace& instance,
    const std::vector<core::QueryContext>& contexts,
    const global::GlobalModel* global_model) {
  fleet_serve::TenantStackConfig stack_config;
  stack_config.predictor = config;
  core::StagePredictorOptions options;
  options.global_model = global_model;
  options.instance = &instance.config;
  auto stack = std::make_unique<fleet_serve::TenantStack>(stack_config, options);
  for (size_t i = 0; i < contexts.size(); ++i) {
    stack->Predict(contexts[i]);
    stack->Observe(contexts[i], instance.trace[i].exec_seconds);
  }
  return stack;
}

// The p50 of one timed pass of bare Predicts over `contexts`. An untimed
// pass runs first, so every timed pass starts hot whichever stack ran just
// before it (alternating the order alone leaves the side that runs second
// in a round cold).
double PredictP50Nanos(const fleet_serve::TenantStack& stack,
                       const std::vector<core::QueryContext>& contexts) {
  for (const core::QueryContext& context : contexts) stack.Predict(context);
  std::vector<double> nanos;
  nanos.reserve(contexts.size());
  for (const core::QueryContext& context : contexts) {
    const auto start = std::chrono::steady_clock::now();
    stack.Predict(context);
    nanos.push_back(std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - start)
                        .count());
  }
  return Quantile(nanos, 0.5);
}

void PrintCoverageTable(const calib::CalibrationReport& pre,
                        const calib::CalibrationReport& post) {
  metrics::TextTable table;
  table.SetHeader({"Nominal", "Pre cov", "Post cov", "Pre |err|",
                   "Post |err|"});
  for (size_t i = 0; i < pre.levels.size(); ++i) {
    char nominal[16];
    std::snprintf(nominal, sizeof(nominal), "%.0f%%", 100.0 * pre.levels[i]);
    table.AddRow({nominal, metrics::FormatValue(pre.observed[i]),
                  metrics::FormatValue(post.observed[i]),
                  metrics::FormatValue(std::fabs(pre.observed[i] -
                                                 pre.levels[i])),
                  metrics::FormatValue(std::fabs(post.observed[i] -
                                                 post.levels[i]))});
  }
  std::printf("%s", table.Render().c_str());
}

void PrintJsonCoverage(std::FILE* json, const char* name,
                       const calib::CalibrationReport& report) {
  std::fprintf(json, "    \"%s\": {\"usable\": %llu, \"ece\": %.6f, "
                     "\"levels\": [",
               name, static_cast<unsigned long long>(report.usable),
               report.ece);
  for (size_t i = 0; i < report.levels.size(); ++i) {
    std::fprintf(json,
                 "%s{\"nominal\": %.2f, \"observed\": %.6f}",
                 i > 0 ? ", " : "", report.levels[i], report.observed[i]);
  }
  std::fprintf(json, "]}");
}

void PrintJsonMix(std::FILE* json, const char* name,
                  const ReplayOutcome& outcome) {
  std::fprintf(
      json,
      "    \"%s\": {\"cache\": %llu, \"local\": %llu, \"global\": %llu, "
      "\"baseline\": %llu, \"default\": %llu, \"escalations\": %llu, "
      "\"tail_queries\": %zu, \"tail_mae_s\": %.4f}",
      name, static_cast<unsigned long long>(outcome.source_counts[0]),
      static_cast<unsigned long long>(outcome.source_counts[1]),
      static_cast<unsigned long long>(outcome.source_counts[2]),
      static_cast<unsigned long long>(outcome.source_counts[3]),
      static_cast<unsigned long long>(outcome.source_counts[4]),
      static_cast<unsigned long long>(outcome.escalations),
      outcome.tail_abs_errors.size(), Mean(outcome.tail_abs_errors));
}

}  // namespace

int main() {
  const bench::SuiteConfig suite = bench::MakeSuiteConfig();
  std::printf("calibration bench: %d instances x %d queries\n",
              suite.num_eval_instances, suite.queries_per_instance);

  const global::GlobalModel global_model = bench::TrainGlobalModel(suite);
  fleet::FleetGenerator generator(bench::EvalFleetConfig(suite));
  std::vector<fleet::InstanceTrace> instances;
  instances.reserve(static_cast<size_t>(suite.num_eval_instances));
  for (int i = 0; i < suite.num_eval_instances; ++i) {
    instances.push_back(generator.MakeInstanceTrace(i));
  }

  // -- Phase 1: prequential coverage, pre vs post, pooled across instances.
  calib::CalibrationHarness pre_harness;
  calib::CalibrationHarness post_harness;
  const core::StagePredictorConfig flag_off = bench::PaperStageConfig();
  for (int i = 0; i < suite.num_eval_instances; ++i) {
    const fleet::InstanceTrace& instance = instances[static_cast<size_t>(i)];
    const std::vector<core::QueryContext> contexts = MakeContexts(instance);
    core::StagePredictorOptions options;
    options.global_model = &global_model;
    options.instance = &instance.config;
    core::StagePredictor predictor(flag_off, options);
    calib::ConformalRecalibrator shadow(BenchConformalConfig());
    for (size_t q = 0; q < contexts.size(); ++q) {
      obs::PredictionTrace trace;
      predictor.PredictTraced(contexts[q], &trace);
      const double actual = instance.trace[q].exec_seconds;
      if (calib::UsableLogStd(trace.uncertainty_log_std)) {
        const int source = static_cast<int>(trace.stage);
        pre_harness.Add({trace.predicted_seconds, trace.uncertainty_log_std,
                         actual, source});
        post_harness.Add({trace.predicted_seconds,
                          trace.uncertainty_log_std * shadow.scale(), actual,
                          source});
        shadow.Observe(calib::NormalizedResidual(
            trace.predicted_seconds, trace.uncertainty_log_std, actual));
      }
      predictor.Observe(contexts[q], actual);
    }
    std::fprintf(stderr, "[bench_calibration] coverage instance %d/%d "
                         "(shadow scale %.3f)\n",
                 i + 1, suite.num_eval_instances, shadow.scale());
  }
  const calib::CalibrationReport pre = pre_harness.Report();
  const calib::CalibrationReport post = post_harness.Report();
  const double err90_pre = pre.CoverageErrorAt(0.9);
  const double err90_post = post.CoverageErrorAt(0.9);
  const bool coverage_gate = err90_post < err90_pre;

  std::printf("\n== Interval coverage, prequential (%llu scored "
              "predictions) ==\n",
              static_cast<unsigned long long>(pre.usable));
  PrintCoverageTable(pre, post);
  std::printf("ECE: pre %.4f -> post %.4f; coverage@90 error: %.4f -> %.4f "
              "(gate: must shrink -> %s)\n",
              pre.ece, post.ece, err90_pre, err90_post,
              coverage_gate ? "OK" : "FAIL");

  // -- Phases 2 + 3: routing mix and tail MAE, flag-off vs flag-on.
  ReplayOutcome off_outcome;
  ReplayOutcome on_outcome;
  for (int i = 0; i < suite.num_eval_instances; ++i) {
    const fleet::InstanceTrace& instance = instances[static_cast<size_t>(i)];
    const std::vector<core::QueryContext> contexts = MakeContexts(instance);
    const ReplayOutcome off =
        ReplayWithConfig(flag_off, instance, contexts, &global_model);
    const ReplayOutcome on =
        ReplayWithConfig(CalibratedConfig(), instance, contexts,
                         &global_model);
    for (int s = 0; s < core::kNumPredictionSources; ++s) {
      off_outcome.source_counts[s] += off.source_counts[s];
      on_outcome.source_counts[s] += on.source_counts[s];
    }
    off_outcome.escalations += off.escalations;
    on_outcome.escalations += on.escalations;
    off_outcome.tail_abs_errors.insert(off_outcome.tail_abs_errors.end(),
                                       off.tail_abs_errors.begin(),
                                       off.tail_abs_errors.end());
    on_outcome.tail_abs_errors.insert(on_outcome.tail_abs_errors.end(),
                                      on.tail_abs_errors.begin(),
                                      on.tail_abs_errors.end());
    std::fprintf(stderr, "[bench_calibration] routing instance %d/%d\n",
                 i + 1, suite.num_eval_instances);
  }
  std::printf("\n== Routing mix + tail MAE (flag-off vs flag-on) ==\n");
  metrics::TextTable mix;
  mix.SetHeader({"Config", "Cache", "Local", "Global", "Default",
                 "Escalations", "Tail MAE (s)"});
  const auto add_mix = [&](const char* name, const ReplayOutcome& outcome) {
    mix.AddRow({name, std::to_string(outcome.source_counts[0]),
                std::to_string(outcome.source_counts[1]),
                std::to_string(outcome.source_counts[2]),
                std::to_string(outcome.source_counts[4]),
                std::to_string(outcome.escalations),
                metrics::FormatValue(Mean(outcome.tail_abs_errors))});
  };
  add_mix("flag-off", off_outcome);
  add_mix("flag-on", on_outcome);
  std::printf("%s", mix.Render().c_str());

  // -- Phase 4: warm hot-path p50, flag-off vs flag-on. Every round builds
  // and warms a fresh pair of stacks, so no heap placement or build order
  // is fixed for the whole process, and times the pair back to back, so
  // host drift lands on both sides of each round's ratio. Rounds alternate
  // which side is built and timed first; the gate reads the median ratio.
  constexpr int kOverheadRounds = 15;
  const std::vector<core::QueryContext> overhead_contexts =
      MakeContexts(instances[0]);
  const auto warm = [&](const core::StagePredictorConfig& config) {
    return WarmStack(config, instances[0], overhead_contexts, &global_model);
  };
  std::vector<double> off_p50s;
  std::vector<double> on_p50s;
  std::vector<double> ratios;
  for (int round = 0; round < kOverheadRounds; ++round) {
    double off_p50 = 0.0;
    double on_p50 = 0.0;
    if (round % 2 == 0) {
      const auto off_stack = warm(flag_off);
      const auto on_stack = warm(CalibratedConfig());
      off_p50 = PredictP50Nanos(*off_stack, overhead_contexts);
      on_p50 = PredictP50Nanos(*on_stack, overhead_contexts);
    } else {
      const auto on_stack = warm(CalibratedConfig());
      const auto off_stack = warm(flag_off);
      on_p50 = PredictP50Nanos(*on_stack, overhead_contexts);
      off_p50 = PredictP50Nanos(*off_stack, overhead_contexts);
    }
    off_p50s.push_back(off_p50);
    on_p50s.push_back(on_p50);
    ratios.push_back(on_p50 / off_p50);
  }
  const double p50_off = Quantile(off_p50s, 0.5);
  const double p50_on = Quantile(on_p50s, 0.5);
  const double median_ratio = Quantile(ratios, 0.5);
  const double p50_delta_pct = 100.0 * (median_ratio - 1.0);
  const bool overhead_gate = median_ratio <= 1.03;
  std::printf("\n== Warm predict p50: %.0f ns off, %.0f ns on; median "
              "per-round ratio %+.2f%% over %d rounds (budget +3%% -> %s) "
              "==\n",
              p50_off, p50_on, p50_delta_pct, kOverheadRounds,
              overhead_gate ? "OK" : "FAIL");

  std::FILE* json = std::fopen("BENCH_calibration.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_calibration.json for write\n");
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"config\": {\"num_instances\": %d, "
               "\"queries_per_instance\": %d, \"window_capacity\": %zu, "
               "\"anchor_confidence\": %.2f},\n"
               "  \"coverage\": {\n",
               suite.num_eval_instances, suite.queries_per_instance,
               BenchConformalConfig().window_capacity,
               BenchConformalConfig().anchor_confidence);
  PrintJsonCoverage(json, "pre", pre);
  std::fprintf(json, ",\n");
  PrintJsonCoverage(json, "post", post);
  std::fprintf(json,
               ",\n    \"err90_pre\": %.6f, \"err90_post\": %.6f\n  },\n"
               "  \"routing\": {\n",
               err90_pre, err90_post);
  PrintJsonMix(json, "flag_off", off_outcome);
  std::fprintf(json, ",\n");
  PrintJsonMix(json, "flag_on", on_outcome);
  std::fprintf(json,
               "\n  },\n"
               "  \"overhead\": {\"predict_p50_ns_off\": %.1f, "
               "\"predict_p50_ns_on\": %.1f, \"p50_delta_pct\": %.3f, "
               "\"round_ratios\": [",
               p50_off, p50_on, p50_delta_pct);
  for (size_t round = 0; round < ratios.size(); ++round) {
    std::fprintf(json, "%s%.4f", round > 0 ? ", " : "", ratios[round]);
  }
  std::fprintf(json,
               "]},\n"
               "  \"gates\": {\"calibrated_coverage_better\": %s, "
               "\"p50_overhead_within_budget\": %s}\n"
               "}\n",
               coverage_gate ? "true" : "false",
               overhead_gate ? "true" : "false");
  std::fclose(json);
  std::printf("\nwrote BENCH_calibration.json (gates %s)\n",
              coverage_gate && overhead_gate ? "pass" : "FAILED");
  return 0;
}
