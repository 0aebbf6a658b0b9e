// Ablation: ensemble size K of the Bayesian local model. K = 1 has no
// model-uncertainty signal at all; the paper uses K = 10. This sweep shows
// accuracy, uncertainty quality (PRR), training cost, and model size.
#include <chrono>
#include <cstdio>

#include "bench_common.h"
#include "stage/common/stats.h"
#include "stage/metrics/prr.h"
#include "stage/metrics/report.h"

using namespace stage;

int main() {
  bench::SuiteConfig suite = bench::MakeSuiteConfig();
  fleet::FleetGenerator generator(bench::EvalFleetConfig(suite));
  std::vector<fleet::InstanceTrace> fleet;
  const int instances = std::min(4, suite.num_eval_instances);
  for (int i = 0; i < instances; ++i) {
    fleet.push_back(generator.MakeInstanceTrace(i));
  }

  std::printf("=== Ablation: Bayesian ensemble size K (paper: K = 10) "
              "===\n\n");
  metrics::TextTable table;
  table.SetHeader({"K", "miss MAE (s)", "miss P50-AE", "median PRR",
                   "train time (s)", "model bytes"});
  for (int k : {1, 3, 5, 10, 15}) {
    std::vector<double> actual;
    std::vector<double> predicted;
    std::vector<double> prr_scores;
    double train_seconds = 0.0;
    size_t model_bytes = 0;
    for (const auto& instance : fleet) {
      core::StagePredictorConfig config = bench::PaperStageConfig();
      config.local.ensemble.num_members = k;
      core::StagePredictor stage(config, {.instance = &instance.config});
      const auto start = std::chrono::steady_clock::now();
      const auto result = core::ReplayTrace(instance.trace, stage);
      train_seconds += std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
      model_bytes = stage.local_model_snapshot()->MemoryBytes();

      std::vector<double> errors;
      std::vector<double> uncertainties;
      for (const auto& record : result.records) {
        if (record.source != core::PredictionSource::kLocal) continue;
        actual.push_back(record.actual_seconds);
        predicted.push_back(record.predicted_seconds);
        errors.push_back(
            std::abs(record.actual_seconds - record.predicted_seconds));
        uncertainties.push_back(record.uncertainty_log_std);
      }
      if (errors.size() >= 50) {
        prr_scores.push_back(
            metrics::PredictionRejectionRatio(errors, uncertainties));
      }
    }
    const auto summary =
        metrics::Summarize(metrics::AbsoluteErrors(actual, predicted));
    table.AddRow({std::to_string(k), metrics::FormatValue(summary.mean),
                  metrics::FormatValue(summary.p50),
                  prr_scores.empty()
                      ? "n/a"
                      : metrics::FormatValue(Quantile(prr_scores, 0.5)),
                  metrics::FormatValue(train_seconds),
                  std::to_string(model_bytes)});
    std::fprintf(stderr, "[bench] K=%d done\n", k);
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("(expected: PRR improves sharply from K=1 and saturates "
              "near K=10, while cost and size grow linearly in K)\n");
  return 0;
}
