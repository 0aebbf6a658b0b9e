#include "stage/obs/trace.h"

#include <cstdio>

#include "stage/common/macros.h"

namespace stage::obs {

std::string_view TraceStageName(TraceStage stage) {
  switch (stage) {
    case TraceStage::kCache:
      return "cache";
    case TraceStage::kLocal:
      return "local";
    case TraceStage::kGlobal:
      return "global";
    case TraceStage::kBaseline:
      return "baseline";
    case TraceStage::kDefault:
      return "default";
  }
  return "unknown";
}

std::string FormatTraceLine(uint64_t query_index,
                            const PredictionTrace& trace) {
  char buffer[320];
  std::snprintf(
      buffer, sizeof(buffer),
      "q=%llu stage=%s hit=%d trained=%d global=%d short=%d conf=%d esc=%d "
      "pred=%.17g unc=%.17g thr_short=%.17g thr_unc=%.17g",
      static_cast<unsigned long long>(query_index),
      std::string(TraceStageName(trace.stage)).c_str(),
      trace.cache_hit ? 1 : 0, trace.local_trained ? 1 : 0,
      trace.global_available ? 1 : 0, trace.short_running ? 1 : 0,
      trace.confident ? 1 : 0, trace.escalated ? 1 : 0,
      trace.predicted_seconds, trace.uncertainty_log_std,
      trace.short_running_threshold, trace.uncertainty_threshold);
  return buffer;
}

RoutingMetricSet RoutingMetricSet::Create(MetricsRegistry* registry,
                                          const std::string& prefix) {
  RoutingMetricSet set;
  if (registry == nullptr) return set;
  set.escalations = &registry->GetCounter(prefix + "escalations_total");
  set.uncertainty = &registry->GetHistogram(
      prefix + "local_uncertainty_log_std", Histogram::UncertaintyBuckets());
  return set;
}

void RoutingMetricSet::Record(const PredictionTrace& trace) const {
  STAGE_DCHECK(enabled());
  if (trace.escalated) escalations->Increment();
  if (trace.uncertainty_log_std >= 0.0) {
    uncertainty->Record(trace.uncertainty_log_std);
  }
}

}  // namespace stage::obs
