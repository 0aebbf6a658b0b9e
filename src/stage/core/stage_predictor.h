#ifndef STAGE_CORE_STAGE_PREDICTOR_H_
#define STAGE_CORE_STAGE_PREDICTOR_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "stage/cache/exec_time_cache.h"
#include "stage/calib/conformal.h"
#include "stage/core/predictor.h"
#include "stage/fleet/instance.h"
#include "stage/global/global_model.h"
#include "stage/local/local_model.h"
#include "stage/local/training_pool.h"
#include "stage/metrics/latency_recorder.h"
#include "stage/obs/metrics.h"
#include "stage/obs/trace.h"

namespace stage::core {

// All knobs of the hierarchical Stage predictor (§4).
struct StagePredictorConfig {
  cache::ExecTimeCacheConfig cache;
  local::TrainingPoolConfig pool;
  local::LocalModelConfig local;

  // Local-model (re)training cadence.
  size_t retrain_interval = 400;
  size_t min_train_size = 30;

  // Routing (§4.1): return the local prediction when it says the query is
  // short-running OR when it is confident; otherwise escalate to the
  // global model. The uncertainty threshold is on the log-space standard
  // deviation (a multiplicative error bar: 1.0 ~= within ~2.7x).
  double short_running_seconds = 5.0;
  double uncertainty_log_std_threshold = 1.0;

  // §4.8 calibration: when set, an online conformal recalibrator rescales
  // the local ensemble's log_std before the confidence check above (and in
  // the reported uncertainty), driven by normalized residuals observed on
  // completions. Off by default — the flag-off path is bit-for-bit legacy
  // routing, pinned by tests/golden/routing_v1.txt.
  bool calibrate_uncertainty = false;
  calib::ConformalConfig conformal;

  // Returns an empty string when the config is usable; otherwise a
  // description of the first problem found. StagePredictor refuses to
  // construct from an invalid config.
  std::string Validate() const;
};

// Non-owning collaborators of a StagePredictor. Both pointers may be null
// (the predictor degrades to cache + local, which is the configuration
// Redshift actually deployed, §5.2); when set they are borrowed and must
// outlive the predictor.
struct StagePredictorOptions {
  const global::GlobalModel* global_model = nullptr;
  const fleet::InstanceConfig* instance = nullptr;
  // Optional observability sink. When set, the predictor resolves its
  // hot-path metrics (escalations, uncertainty, per-stage latency) against
  // it and registers render-time callbacks for its component state (cache
  // hits/misses/evictions, pool size, attribution counters); it must
  // outlive the predictor, which unregisters its callbacks on destruction.
  obs::MetricsRegistry* metrics = nullptr;
  // Metric name prefix; distinct predictors sharing one registry must use
  // distinct prefixes.
  std::string metrics_prefix = "stage_";
};

// The Stage predictor (§4): exec-time cache -> local Bayesian-ensemble
// model -> fleet-trained global GCN, built to serve concurrently. The
// exec-time cache sits behind its own lock, the training pool and
// retrain cadence behind a write-path lock, and the local model is a
// double-buffered snapshot: a retrain builds a fresh model from a copy of
// the pool and publishes it with an O(1) pointer swap. The §4.3 cadence
// either trains inline (the two-argument Observe) or reports that a retrain
// is due and leaves scheduling to the caller (FleetService's fairness-capped
// workers).
//
// One read routine serves one query, as the paper calls Stage once per
// query at admission: PredictTraced probes the cache, routes a miss through
// the local model, answers an escalation with GlobalModel::PredictSeconds,
// then records attribution, per-stage latency, the trace and the routing
// metrics. Predict is PredictTraced without a trace, so a query routes,
// answers and reports the same whichever entry served it.
//
// Concurrency contract:
//  * Predict / PredictTraced are const, never block on training, and are
//    safe against each other and against Observe.
//  * Observe is serialized internally (multiple writer sessions are safe).
//  * SaveState pauses writers (not readers) for a consistent cut; LoadState
//    must not race anything — restore before serving starts.
//
// The cache is the paper's single least-recently-updated cache; a
// single-threaded replay with inline retraining is pinned bit-for-bit by
// tests/golden/routing_v1.txt.
class StagePredictor : public ExecTimePredictor {
 public:
  // `options` collaborators are borrowed and must outlive the predictor.
  // When options.metrics is set the full metric families register under
  // options.metrics_prefix (and unregister in the destructor).
  explicit StagePredictor(const StagePredictorConfig& config,
                          const StagePredictorOptions& options = {});
  ~StagePredictor() override;

  StagePredictor(const StagePredictor&) = delete;
  StagePredictor& operator=(const StagePredictor&) = delete;

  // PredictTraced without a trace. Allocation-free once this thread's
  // global-model scratch is warm.
  Prediction Predict(const QueryContext& query) const override;

  // The read routine: routes one query and records the decision into
  // `trace` (stage reached, thresholds crossed, uncertainty, total latency
  // in ns). `trace` may be null, degrading to Predict.
  Prediction PredictTraced(const QueryContext& query,
                           obs::PredictionTrace* trace) const;

  // Records an executed query into the cache and, on a cache miss, the
  // training pool (§4.3 dedup); retrains inline when the cadence asks.
  void Observe(const QueryContext& query, double exec_seconds) override;
  // As above, but when the cadence asks for a (re)training and
  // `inline_retrain` is false, returns true instead of training: the
  // caller owns scheduling TrainOnce(). `exec_seconds` must be finite and
  // >= 0.
  bool Observe(const QueryContext& query, double exec_seconds,
               bool inline_retrain);

  // Snapshots the pool, trains a fresh model, and publishes it with the
  // double-buffered swap. Safe to run concurrently with Predict/Observe;
  // at most one TrainOnce may run at a time per predictor.
  void TrainOnce();

  std::string_view name() const override { return "Stage"; }

  // Full-state checkpointing on the "SSRV" v2 stream: exec-time cache,
  // training pool, retrain cadence, local model (when trained), trainings
  // counter, and the recalibrator window when calibration is on. A
  // predictor restored from a snapshot continues the replay bit-for-bit.
  // SaveState pins one consistent Observe boundary (writers stall; readers
  // wait only while the cache section is written). LoadState needs the
  // writer's calibration flag and a cache capacity that holds the writer's
  // entries; it parses every section before committing any, so on failure it
  // returns false — filling `error` when non-null — with the predictor
  // untouched. Telemetry (attribution counters, latency recorder, cache
  // hit/miss counters) restarts at zero on LoadState: counters describe a
  // serving lifetime, not predictor state. The global model is borrowed
  // (StagePredictorOptions), never persisted.
  bool SaveState(std::ostream& out, std::string* error = nullptr) const;
  bool LoadState(std::istream& in, std::string* error = nullptr);

  // Approximate bytes of resident state (cache + pool + current local
  // model + fixed overhead): the fleet registry's eviction currency. Takes
  // the cache and pool locks briefly; cheap enough for the Observe path.
  size_t ApproxResidentBytes() const;

  // Memory footprint of the locally resident components (the paper excludes
  // the global model, which deploys as a shared serverless function).
  size_t LocalMemoryBytes() const;

  // Attribution counters: how many predictions each stage served.
  uint64_t predictions_from(PredictionSource source) const {
    return source_counts_[static_cast<int>(source)].load(
        std::memory_order_relaxed);
  }
  uint64_t total_predictions() const;
  std::array<uint64_t, kNumPredictionSources> SourceCounts() const;
  // Re-seeds the attribution counters (cold activation of a previously
  // evicted tenant restores its in-process counts). Not thread-safe with
  // concurrent Predicts — call before the predictor starts serving.
  void SeedSourceCounts(
      const std::array<uint64_t, kNumPredictionSources>& counts);

  // Completed local-model trainings.
  int trainings() const { return trainings_.load(std::memory_order_relaxed); }

  // Current §4.8 conformal sigma correction: 1.0 when calibration is off
  // (or the window hasn't filled to conformal.min_window yet). Lock-free
  // (one atomic load), safe against concurrent Observes.
  double conformal_scale() const {
    return recalibrator_ != nullptr ? recalibrator_->scale() : 1.0;
  }
  // The recalibrator, or nullptr when calibrate_uncertainty is off.
  const calib::ConformalRecalibrator* recalibrator() const {
    return recalibrator_.get();
  }

  // Current local-model snapshot (nullptr before the first training). The
  // returned pointer stays valid across later swaps.
  std::shared_ptr<const local::LocalModel> local_model_snapshot() const;

  const cache::ExecTimeCache& exec_time_cache() const { return cache_; }
  size_t pool_size() const;

  // Per-source read-path latency/QPS, one slot per PredictionSource.
  const metrics::LatencyRecorder& predict_latency() const {
    return predict_latency_;
  }
  // Slot kNumPredictionSources-aligned names for RenderTable.
  static std::vector<std::string> PredictLatencySlotNames();

 private:
  void RegisterMetrics();
  void PublishModel(std::shared_ptr<const local::LocalModel> fresh);

  StagePredictorConfig config_;
  StagePredictorOptions options_;  // Borrowed pointers, nullable.

  cache::ExecTimeCache cache_;

  // Write-path state: the pool and retrain bookkeeping, guarded by
  // pool_mutex_ (observe_mutex_ additionally serializes whole Observes so
  // multiple writer sessions keep sequential semantics). Mutable so the
  // const SaveState can pause writers while it runs.
  mutable std::mutex observe_mutex_;
  mutable std::mutex pool_mutex_;
  local::TrainingPool pool_;
  size_t observed_since_train_ = 0;
  bool first_train_requested_ = false;

  // §4.8 recalibrator, non-null iff config_.calibrate_uncertainty. The
  // window is mutated only under observe_mutex_; the published scale is an
  // atomic the read path loads lock-free.
  std::unique_ptr<calib::ConformalRecalibrator> recalibrator_;

  // Double-buffered model snapshot: the trainer publishes a fresh model by
  // swapping this pointer; in-flight readers keep the previous buffer alive
  // through their own shared_ptr until they finish with it. model_mutex_
  // guards only the O(1) copy/swap — it is never held while training — so
  // Predict can stall behind a pointer copy at worst, never behind Train.
  // (Deliberately not std::atomic<std::shared_ptr>: libstdc++ implements
  // that with a lock bit ThreadSanitizer cannot see, and the stress tests
  // must run TSan-clean.)
  mutable std::mutex model_mutex_;
  std::shared_ptr<const local::LocalModel> model_;
  std::atomic<int> trainings_{0};

  mutable std::array<std::atomic<uint64_t>, kNumPredictionSources>
      source_counts_{};
  mutable metrics::LatencyRecorder predict_latency_{kNumPredictionSources};
  // Hot-path metric handles, resolved against options_.metrics when set
  // (null members otherwise).
  obs::RoutingMetricSet routing_metrics_;
};

}  // namespace stage::core

#endif  // STAGE_CORE_STAGE_PREDICTOR_H_
