// Closed-loop WLM benchmark (ROADMAP item 2 acceptance; the paper's §1 and
// §5.2 motivating claim as a measured end-to-end property): drive the WLM
// queue simulator with a live predictor in the loop — Predict at admission
// routes and orders, Observe at completion adapts the exec-time cache and
// local model mid-run — and compare four policies at multiple target
// utilizations:
//   * oracle     — scheduling on ground-truth exec-times (lower bound),
//   * stage      — the Stage stack closed-loop (cache -> local model),
//   * autowlm    — the prior single-GBT AutoWLM baseline closed-loop,
//   * open_loop  — Stage predictions precomputed on an arrival-order
//                  replay, then fed as a fixed vector (the pre-closed-loop
//                  pipeline; isolates what closing the loop buys).
// Reported per policy: average/p50/p99 queueing latency, SLO-violation
// rate (deadline = slo_factor x true exec-time), scaling offloads, and the
// routing-source mix. Results land in BENCH_wlm_closed_loop.json.
//
// STAGE_BENCH_FAST=1 shrinks the workload for CI smoke runs.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "stage/common/stats.h"
#include "stage/wlm/policy.h"
#include "stage/wlm/trace_util.h"

using namespace stage;

namespace {

constexpr wlm::WlmPolicy kPolicies[] = {
    wlm::WlmPolicy::kOracle, wlm::WlmPolicy::kStage,
    wlm::WlmPolicy::kAutoWlm, wlm::WlmPolicy::kOpenLoop};

struct BenchConfig {
  bool fast = false;
  std::vector<double> utilizations = {0.8, 0.95};
  double slo_factor = 10.0;
};

BenchConfig MakeConfig() {
  BenchConfig config;
  const char* fast = std::getenv("STAGE_BENCH_FAST");
  if (fast != nullptr && fast[0] != '\0' && fast[0] != '0') {
    config.fast = true;
  }
  // STAGE_WLM_UTILIZATIONS="0.8,0.95" overrides the target-utilization
  // sweep (exploration aid; the gates always run on whatever levels are
  // active).
  if (const char* env = std::getenv("STAGE_WLM_UTILIZATIONS");
      env != nullptr && env[0] != '\0') {
    config.utilizations.clear();
    for (const char* p = env; *p != '\0';) {
      char* end = nullptr;
      const double u = std::strtod(p, &end);
      if (end == p) break;
      if (u > 0.0) config.utilizations.push_back(u);
      p = *end == ',' ? end + 1 : end;
    }
    if (config.utilizations.empty()) config.utilizations = {0.8, 0.95};
  }
  return config;
}

// Pooled per-policy outcome at one utilization level. Gate metrics are on
// queueing latency (wait time): that is what the predictor-driven scheduler
// controls — total latency additionally carries the irreducible exec-time
// of each query, which drowns the tail comparison at low utilization.
struct PolicyStats {
  std::vector<double> waits;       // Queueing latency per query.
  std::vector<double> latencies;   // Total latency (wait + exec).
  std::vector<double> abs_errors;  // |predicted - true| per query.
  uint64_t correct_routes = 0;     // Predicted short/long side == true side.
  uint64_t slo_violations = 0;
  uint64_t scaling_offloads = 0;
  uint64_t source_counts[core::kNumPredictionSources] = {};

  double Avg() const { return Mean(waits); }
  double P50() const { return Quantile(waits, 0.5); }
  double P99() const { return Quantile(waits, 0.99); }
  double AvgTotal() const { return Mean(latencies); }
  double Mae() const { return Mean(abs_errors); }
  double RouteAccuracy() const {
    return abs_errors.empty() ? 0.0
                              : static_cast<double>(correct_routes) /
                                    static_cast<double>(abs_errors.size());
  }
  double SloRate() const {
    return latencies.empty() ? 0.0
                             : static_cast<double>(slo_violations) /
                                   static_cast<double>(latencies.size());
  }
};

void Accumulate(PolicyStats& stats,
                const std::vector<fleet::QueryEvent>& trace,
                double short_threshold_seconds,
                const wlm::ClosedLoopResult& result) {
  stats.waits.insert(stats.waits.end(), result.wlm.wait_seconds.begin(),
                     result.wlm.wait_seconds.end());
  stats.latencies.insert(stats.latencies.end(),
                         result.wlm.latency_seconds.begin(),
                         result.wlm.latency_seconds.end());
  for (size_t i = 0; i < trace.size(); ++i) {
    stats.abs_errors.push_back(
        std::fabs(result.predicted_seconds[i] - trace[i].exec_seconds));
    if ((result.predicted_seconds[i] < short_threshold_seconds) ==
        (trace[i].exec_seconds < short_threshold_seconds)) {
      ++stats.correct_routes;
    }
  }
  stats.slo_violations += result.slo_violations;
  stats.scaling_offloads +=
      static_cast<uint64_t>(result.wlm.scaling_offloads);
  for (int s = 0; s < core::kNumPredictionSources; ++s) {
    stats.source_counts[s] += result.source_counts[s];
  }
}

std::string SourceMix(const PolicyStats& stats) {
  uint64_t total = 0;
  for (const uint64_t count : stats.source_counts) total += count;
  if (total == 0) return "-";
  char buffer[128];
  std::snprintf(
      buffer, sizeof(buffer), "%.0f/%.0f/%.0f/%.0f/%.0f",
      100.0 * stats.source_counts[0] / total,
      100.0 * stats.source_counts[1] / total,
      100.0 * stats.source_counts[2] / total,
      100.0 * stats.source_counts[3] / total,
      100.0 * stats.source_counts[4] / total);
  return buffer;
}

}  // namespace

int main() {
  const BenchConfig config = MakeConfig();
  const bench::SuiteConfig suite = bench::MakeSuiteConfig();
  std::printf("wlm closed-loop bench: %d instances x %d queries, "
              "utilizations {", suite.num_eval_instances,
              suite.queries_per_instance);
  for (size_t u = 0; u < config.utilizations.size(); ++u) {
    std::printf("%s%.2f", u > 0 ? ", " : "", config.utilizations[u]);
  }
  std::printf("}%s\n", config.fast ? " (fast)" : "");

  // The Stage hierarchy's fleet-trained fallback (trained on a disjoint
  // training fleet, as in fig6) — this is exactly what the AutoWLM
  // baseline lacks on cold starts.
  const global::GlobalModel global_model = bench::TrainGlobalModel(suite);

  fleet::FleetGenerator generator(bench::EvalFleetConfig(suite));
  std::vector<fleet::InstanceTrace> instances;
  instances.reserve(static_cast<size_t>(suite.num_eval_instances));
  for (int i = 0; i < suite.num_eval_instances; ++i) {
    instances.push_back(generator.MakeInstanceTrace(i));
  }

  wlm::PolicyRunConfig policy_config;
  policy_config.loop.slo_factor = config.slo_factor;
  // Production shape: long-waiting queries burst onto a concurrency-scaling
  // cluster, so mispredictions cost offloads (and bounded waits) instead of
  // unbounded queue collapse.
  policy_config.loop.wlm.enable_concurrency_scaling = true;
  // All four policies schedule shortest-predicted-first in every pool, so
  // the comparison isolates prediction quality: a better predictor yields
  // a better schedule, a worse one pays for its own errors.
  policy_config.loop.wlm.sjf_short_queue = true;
  policy_config.stage = bench::PaperStageConfig();
  policy_config.autowlm = bench::PaperAutoWlmConfig();
  policy_config.global_model = &global_model;
  const int total_slots = policy_config.loop.wlm.short_slots +
                          policy_config.loop.wlm.long_slots;

  std::FILE* json = std::fopen("BENCH_wlm_closed_loop.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr,
                 "cannot open BENCH_wlm_closed_loop.json for write\n");
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"config\": {\"fast\": %s, \"num_instances\": %d, "
               "\"queries_per_instance\": %d, \"short_slots\": %d, "
               "\"long_slots\": %d, \"slo_factor\": %.1f},\n"
               "  \"utilization_levels\": [\n",
               config.fast ? "true" : "false", suite.num_eval_instances,
               suite.queries_per_instance,
               policy_config.loop.wlm.short_slots,
               policy_config.loop.wlm.long_slots, config.slo_factor);

  bool all_gates_pass = true;
  for (size_t u = 0; u < config.utilizations.size(); ++u) {
    const double utilization = config.utilizations[u];
    PolicyStats stats[wlm::kNumWlmPolicies];
    for (int i = 0; i < suite.num_eval_instances; ++i) {
      const auto trace = wlm::CompressToUtilization(
          instances[static_cast<size_t>(i)].trace, total_slots, utilization);
      policy_config.instance = &instances[static_cast<size_t>(i)].config;
      for (const wlm::WlmPolicy policy : kPolicies) {
        Accumulate(stats[static_cast<int>(policy)], trace,
                   policy_config.loop.wlm.short_threshold_seconds,
                   wlm::RunWlmPolicy(trace, policy, policy_config));
      }
      std::fprintf(stderr, "[bench_wlm_closed_loop] u=%.2f instance %d/%d\n",
                   utilization, i + 1, suite.num_eval_instances);
    }

    const PolicyStats& oracle =
        stats[static_cast<int>(wlm::WlmPolicy::kOracle)];
    const PolicyStats& stage_stats =
        stats[static_cast<int>(wlm::WlmPolicy::kStage)];
    const PolicyStats& autowlm =
        stats[static_cast<int>(wlm::WlmPolicy::kAutoWlm)];
    const bool stage_beats_autowlm_avg = stage_stats.Avg() < autowlm.Avg();
    const bool stage_beats_autowlm_p99 = stage_stats.P99() < autowlm.P99();
    const bool oracle_bounds_avg = oracle.Avg() <= stage_stats.Avg() &&
                                   oracle.Avg() <= autowlm.Avg();
    const bool oracle_bounds_p99 = oracle.P99() <= stage_stats.P99() &&
                                   oracle.P99() <= autowlm.P99();
    all_gates_pass = all_gates_pass && stage_beats_autowlm_avg &&
                     stage_beats_autowlm_p99 && oracle_bounds_avg &&
                     oracle_bounds_p99;

    std::printf("\n== target utilization %.2f ==\n", utilization);
    std::printf("%-10s %9s %9s %9s %9s %8s %8s %7s %9s  %s\n", "policy",
                "wait avg", "wait p50", "wait p99", "lat avg", "SLO miss",
                "MAE (s)", "route%", "offloads",
                "mix cache/local/global/baseline/default %");
    for (const wlm::WlmPolicy policy : kPolicies) {
      const PolicyStats& s = stats[static_cast<int>(policy)];
      const std::string mix = SourceMix(s);
      std::printf(
          "%-10s %9.2f %9.2f %9.2f %9.2f %7.2f%% %8.2f %6.1f%% %9llu  %s\n",
          std::string(wlm::WlmPolicyName(policy)).c_str(), s.Avg(), s.P50(),
          s.P99(), s.AvgTotal(), 100.0 * s.SloRate(), s.Mae(),
          100.0 * s.RouteAccuracy(),
          static_cast<unsigned long long>(s.scaling_offloads), mix.c_str());
    }
    std::printf("gates: stage<autowlm avg %s, p99 %s; oracle bounds avg %s, "
                "p99 %s\n",
                stage_beats_autowlm_avg ? "OK" : "FAIL",
                stage_beats_autowlm_p99 ? "OK" : "FAIL",
                oracle_bounds_avg ? "OK" : "FAIL",
                oracle_bounds_p99 ? "OK" : "FAIL");

    std::fprintf(json, "    {\"target_utilization\": %.2f,\n"
                       "     \"policies\": {\n",
                 utilization);
    for (size_t p = 0; p < std::size(kPolicies); ++p) {
      const PolicyStats& s = stats[static_cast<int>(kPolicies[p])];
      std::fprintf(
          json,
          "      \"%s\": {\"queries\": %zu, \"avg_queueing_s\": %.4f, "
          "\"p50_queueing_s\": %.4f, \"p99_queueing_s\": %.4f, "
          "\"avg_total_latency_s\": %.4f, "
          "\"slo_violation_rate\": %.4f, \"prediction_mae_s\": %.4f, "
          "\"routing_accuracy\": %.4f, \"scaling_offloads\": %llu, "
          "\"source_mix\": {\"cache\": %llu, \"local\": %llu, "
          "\"global\": %llu, \"baseline\": %llu, \"default\": %llu}}%s\n",
          std::string(wlm::WlmPolicyName(kPolicies[p])).c_str(),
          s.latencies.size(), s.Avg(), s.P50(), s.P99(), s.AvgTotal(),
          s.SloRate(), s.Mae(), s.RouteAccuracy(),
          static_cast<unsigned long long>(s.scaling_offloads),
          static_cast<unsigned long long>(s.source_counts[0]),
          static_cast<unsigned long long>(s.source_counts[1]),
          static_cast<unsigned long long>(s.source_counts[2]),
          static_cast<unsigned long long>(s.source_counts[3]),
          static_cast<unsigned long long>(s.source_counts[4]),
          p + 1 < std::size(kPolicies) ? "," : "");
    }
    std::fprintf(
        json,
        "     },\n"
        "     \"gates\": {\"stage_beats_autowlm_avg\": %s, "
        "\"stage_beats_autowlm_p99\": %s, \"oracle_bounds_avg\": %s, "
        "\"oracle_bounds_p99\": %s}}%s\n",
        stage_beats_autowlm_avg ? "true" : "false",
        stage_beats_autowlm_p99 ? "true" : "false",
        oracle_bounds_avg ? "true" : "false",
        oracle_bounds_p99 ? "true" : "false",
        u + 1 < config.utilizations.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_wlm_closed_loop.json (all gates %s)\n",
              all_gates_pass ? "pass" : "FAILED");
  return 0;
}
