#ifndef STAGE_CORE_PREDICTOR_H_
#define STAGE_CORE_PREDICTOR_H_

#include <cstdint>
#include <string_view>

#include "stage/plan/featurizer.h"
#include "stage/plan/plan.h"

namespace stage::core {

// Everything a predictor may see about one query at prediction time: the
// physical plan, its flattened feature vector and hash, the observable
// system load, and a monotone logical timestamp.
struct QueryContext {
  const plan::Plan* plan = nullptr;
  plan::PlanFeatures features{};
  uint64_t feature_hash = 0;
  int concurrent_queries = 0;
  uint64_t tick = 0;  // e.g. arrival time in ms; drives cache eviction.
};

// Featurizes + hashes a plan into a context.
QueryContext MakeQueryContext(const plan::Plan& plan, int concurrent_queries,
                              uint64_t tick);

// Which component produced a prediction (for attribution in the ablation
// tables and Fig. 9).
enum class PredictionSource : uint8_t {
  kCache = 0,
  kLocal,
  kGlobal,
  kBaseline,   // Non-hierarchical predictors (AutoWLM).
  kDefault,    // Cold start, nothing trained yet.
};

// Number of PredictionSource values; sizes attribution-counter arrays.
inline constexpr int kNumPredictionSources = 5;

std::string_view PredictionSourceName(PredictionSource source);

struct Prediction {
  double seconds = 0.0;
  PredictionSource source = PredictionSource::kDefault;
  // Predicted log-space standard deviation when the source provides one
  // (local model); negative when unavailable.
  double uncertainty_log_std = -1.0;
};

// The interface of every exec-time predictor in this library. The contract
// mirrors deployment: Predict is called before execution, Observe after it
// with the measured exec-time (which feeds caches/training pools).
//
// Thread-safety contract. The interface is split into a const read path
// (Predict, one query per call, as the paper calls Stage once per query at
// admission) and a mutating write path (Observe):
//
//  * Predict is `const` and must not mutate any state that affects future
//    predictions. Implementations may update bookkeeping counters
//    (hit/miss, attribution) from the read path, but only through atomics,
//    so concurrent Predict calls never race with *each other*.
//  * Observe mutates model state (caches, training pools, retraining).
//    Whether it may race Predict is up to the implementation: AutoWlm
//    requires external serialization, while StagePredictor layers a
//    locked cache and a double-buffered model snapshot on this interface
//    so Predict never waits on a whole Observe or a retrain.
class ExecTimePredictor {
 public:
  virtual ~ExecTimePredictor() = default;

  virtual Prediction Predict(const QueryContext& query) const = 0;

  virtual void Observe(const QueryContext& query, double exec_seconds) = 0;
  virtual std::string_view name() const = 0;
};

// Prediction returned before any model has trained.
inline constexpr double kColdStartDefaultSeconds = 1.0;

}  // namespace stage::core

#endif  // STAGE_CORE_PREDICTOR_H_
