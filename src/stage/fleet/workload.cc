#include "stage/fleet/workload.h"

#include <algorithm>
#include <cmath>

#include "stage/common/macros.h"

namespace stage::fleet {

WorkloadGenerator::WorkloadGenerator(
    const InstanceConfig& instance,
    const plan::GeneratorConfig& generator_config,
    const WorkloadConfig& workload_config, uint64_t seed)
    : instance_(instance),
      config_(workload_config),
      generator_(instance.schema, generator_config),
      rng_(seed) {
  STAGE_CHECK(config_.num_queries > 0);
  STAGE_CHECK(config_.num_templates > 0);
  STAGE_CHECK(config_.days > 0);
  STAGE_CHECK(config_.repeat_fraction >= 0.0 &&
              config_.variant_fraction >= 0.0 &&
              config_.repeat_fraction + config_.variant_fraction <= 1.0);
}

std::vector<QueryEvent> WorkloadGenerator::GenerateTrace() {
  // Template pool with Zipfian popularity: template 1 is the hot dashboard.
  // Templates come in archetype clusters (same structure, different
  // predicates and different hidden estimation errors), so their 33-dim
  // vectors collide while their exec-times do not.
  std::vector<plan::PlanSpec> templates;
  std::vector<double> popularity;
  templates.reserve(config_.num_templates);
  const int per_archetype = std::max(1, config_.templates_per_archetype);
  plan::PlanSpec archetype;
  for (int t = 0; t < config_.num_templates; ++t) {
    if (t % per_archetype == 0) archetype = generator_.RandomSpec(rng_);
    templates.push_back(t % per_archetype == 0
                            ? archetype
                            : generator_.MutateTemplate(archetype, rng_));
    popularity.push_back(1.0 /
                         std::pow(static_cast<double>(t + 1), config_.zipf_s));
  }

  std::vector<QueryEvent> trace;
  trace.reserve(config_.num_queries);

  for (int q = 0; q < config_.num_queries; ++q) {
    QueryEvent event;

    // Arrival: uniform day, diurnal time-of-day (peak business hours).
    const int64_t day = rng_.NextBelow(config_.days);
    double hour;
    if (rng_.NextBernoulli(0.75)) {
      hour = std::clamp(rng_.NextGaussian(13.0, 3.0), 0.0, 23.999);
    } else {
      hour = rng_.NextUniform(0.0, 24.0);
    }
    event.arrival_ms =
        day * 24 * 3600 * 1000 + static_cast<int64_t>(hour * 3600.0 * 1000.0);
    STAGE_DCHECK(event.arrival_ms <
                 static_cast<int64_t>(config_.days) * 24 * 3600 * 1000);

    // Data drift: stale stats vs. grown tables.
    const double row_scale =
        std::pow(1.0 + instance_.daily_data_growth, static_cast<double>(day));

    // Query kind: repeat / variant / ad-hoc.
    const double roll = rng_.NextDouble();
    if (roll < config_.repeat_fraction) {
      const size_t t = rng_.NextWeighted(popularity);
      event.kind = QueryEvent::Kind::kRepeat;
      event.template_id = t + 1;
      event.plan = generator_.Instantiate(templates[t], row_scale);
    } else if (roll < config_.repeat_fraction + config_.variant_fraction) {
      const size_t t = rng_.NextWeighted(popularity);
      event.kind = QueryEvent::Kind::kParamVariant;
      event.template_id = t + 1;
      const plan::PlanSpec variant =
          generator_.JitterParams(templates[t], rng_, config_.param_jitter_sigma);
      event.plan = generator_.Instantiate(variant, row_scale);
    } else {
      event.kind = QueryEvent::Kind::kAdHoc;
      event.plan = generator_.Instantiate(generator_.RandomSpec(rng_),
                                          row_scale);
    }

    event.concurrent_queries = rng_.NextPoisson(instance_.average_load);
    event.exec_seconds = ground_truth_.SampleExecSeconds(
        event.plan, instance_, event.concurrent_queries, row_scale, rng_);
    trace.push_back(std::move(event));
  }

  std::stable_sort(trace.begin(), trace.end(),
                   [](const QueryEvent& a, const QueryEvent& b) {
                     return a.arrival_ms < b.arrival_ms;
                   });
  return trace;
}

}  // namespace stage::fleet
