#include "stage/core/stage_predictor.h"

#include <chrono>
#include <cmath>
#include <optional>
#include <utility>

#include "stage/calib/calibration.h"
#include "stage/common/macros.h"
#include "stage/common/serialize.h"
#include "stage/common/thread_pool.h"

namespace stage::core {

// The obs layer restates PredictionSource as obs::TraceStage (obs sits
// below core); the two must stay numerically identical.
static_assert(obs::kNumTraceStages == kNumPredictionSources);
static_assert(static_cast<int>(obs::TraceStage::kCache) ==
              static_cast<int>(PredictionSource::kCache));
static_assert(static_cast<int>(obs::TraceStage::kLocal) ==
              static_cast<int>(PredictionSource::kLocal));
static_assert(static_cast<int>(obs::TraceStage::kGlobal) ==
              static_cast<int>(PredictionSource::kGlobal));
static_assert(static_cast<int>(obs::TraceStage::kBaseline) ==
              static_cast<int>(PredictionSource::kBaseline));
static_assert(static_cast<int>(obs::TraceStage::kDefault) ==
              static_cast<int>(PredictionSource::kDefault));

std::string StagePredictorConfig::Validate() const {
  if (cache.capacity == 0) return "cache.capacity must be positive";
  if (cache.alpha < 0.0 || cache.alpha > 1.0) {
    return "cache.alpha must be in [0, 1]";
  }
  if (pool.capacity == 0 && !pool.unbounded) {
    return "pool.capacity must be positive (or pool.unbounded set)";
  }
  if (pool.bucket_bounds_seconds[0] > pool.bucket_bounds_seconds[1]) {
    return "pool.bucket_bounds_seconds must be non-decreasing";
  }
  for (double fraction : pool.bucket_fractions) {
    if (fraction < 0.0) return "pool.bucket_fractions must be non-negative";
  }
  if (local.ensemble.num_members <= 0) {
    return "local.ensemble.num_members must be positive";
  }
  if (retrain_interval == 0) return "retrain_interval must be positive";
  if (min_train_size == 0) return "min_train_size must be positive";
  // isfinite first: NaN compares false against every threshold, so a bare
  // `< 0.0` check silently accepts it — and a NaN threshold makes every
  // routing confidence check false.
  if (!std::isfinite(short_running_seconds) || short_running_seconds < 0.0) {
    return "short_running_seconds must be finite and non-negative";
  }
  if (!std::isfinite(uncertainty_log_std_threshold) ||
      uncertainty_log_std_threshold < 0.0) {
    return "uncertainty_log_std_threshold must be finite and non-negative";
  }
  const std::string conformal_error = conformal.Validate();
  if (!conformal_error.empty()) return conformal_error;
  return "";
}

namespace {

uint64_t ElapsedNanos(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

void SetError(std::string* error, const char* message) {
  if (error != nullptr) *error = message;
}

// Validates before any member construction (config_ initializes first), so
// a bad config reports Validate()'s message instead of tripping an internal
// check deep inside a member constructor.
const StagePredictorConfig& Validated(const StagePredictorConfig& config) {
  const std::string error = config.Validate();
  STAGE_CHECK_MSG(error.empty(), error.c_str());
  return config;
}

// Mirrors the final routing outcome into `trace` (no-op when null).
void CompleteTrace(obs::PredictionTrace* trace, const Prediction& out) {
  if (trace == nullptr) return;
  trace->stage = static_cast<obs::TraceStage>(out.source);
  trace->predicted_seconds = out.seconds;
  trace->uncertainty_log_std = out.uncertainty_log_std;
}

// The §4.1 routing policy as a pure function: cache hit -> cached value;
// trained local model -> local unless it is uncertain about a long-running
// query and a global model is usable; otherwise global (cold start) or the
// cold-start default. `cached_seconds` is the already-made cache lookup;
// `local` may be null or untrained. An escalated query is answered by
// GlobalModel::PredictSeconds. When `trace` is non-null the routing
// decision is recorded into it; the latency field is the caller's job.
// `uncertainty_scale` multiplies the local model's log_std before the
// confidence check and in the reported uncertainty (the §4.8 conformal
// correction); 1.0 — the only value the flag-off path passes — is
// bit-for-bit identity.
Prediction RouteHierarchical(const StagePredictorConfig& config,
                             const QueryContext& query,
                             std::optional<double> cached_seconds,
                             const local::LocalModel* local,
                             const global::GlobalModel* global_model,
                             const fleet::InstanceConfig* instance,
                             obs::PredictionTrace* trace,
                             double uncertainty_scale) {
  Prediction out;
  if (trace != nullptr) {
    trace->short_running_threshold = config.short_running_seconds;
    trace->uncertainty_threshold = config.uncertainty_log_std_threshold;
  }

  // Stage 1: exec-time cache.
  if (cached_seconds) {
    out.seconds = *cached_seconds;
    out.source = PredictionSource::kCache;
    if (trace != nullptr) trace->cache_hit = true;
    CompleteTrace(trace, out);
    return out;
  }

  const bool global_available = global_model != nullptr &&
                                global_model->trained() &&
                                instance != nullptr && query.plan != nullptr;
  if (trace != nullptr) trace->global_available = global_available;

  // Stage 2: instance-optimized local model.
  if (local != nullptr && local->trained()) {
    const local::LocalModel::Output local_out = local->Predict(query.features);
    // The conformal correction (§4.8). Identity when uncertainty_scale is
    // 1.0: IEEE multiplication by 1.0 is exact, so the flag-off path stays
    // bit-for-bit legacy.
    const double log_std = local_out.log_std() * uncertainty_scale;
    out.seconds = local_out.exec_seconds;
    out.uncertainty_log_std = log_std;
    out.source = PredictionSource::kLocal;

    const bool short_running =
        local_out.exec_seconds < config.short_running_seconds;
    const bool confident = log_std < config.uncertainty_log_std_threshold;
    if (trace != nullptr) {
      trace->local_trained = true;
      trace->short_running = short_running;
      trace->confident = confident;
    }
    if (short_running || confident || !global_available) {
      CompleteTrace(trace, out);
      return out;
    }
    // Stage 3: the local model is uncertain about a long-running query.
    if (trace != nullptr) trace->escalated = true;
  } else if (!global_available) {
    out.seconds = kColdStartDefaultSeconds;
    out.source = PredictionSource::kDefault;
    CompleteTrace(trace, out);
    return out;
  }
  // Escalation, or a cold start: no local model yet, and the transferable
  // global model covers new instances until enough local training data
  // accumulates.
  out.seconds = global_model->PredictSeconds(*query.plan, *instance,
                                             query.concurrent_queries);
  out.source = PredictionSource::kGlobal;
  CompleteTrace(trace, out);
  return out;
}

}  // namespace

StagePredictor::StagePredictor(const StagePredictorConfig& config,
                               const StagePredictorOptions& options)
    : config_(Validated(config)),
      options_(options),
      cache_(config.cache),
      pool_(config.pool) {
  if (config_.calibrate_uncertainty) {
    recalibrator_ =
        std::make_unique<calib::ConformalRecalibrator>(config_.conformal);
  }
  if (options_.metrics != nullptr) RegisterMetrics();
}

StagePredictor::~StagePredictor() {
  // Drop render-time callbacks before any member state dies: a scrape
  // racing destruction must never read a dead cache or pool.
  if (options_.metrics != nullptr) options_.metrics->UnregisterAll(this);
}

void StagePredictor::RegisterMetrics() {
  obs::MetricsRegistry* registry = options_.metrics;
  const std::string& prefix = options_.metrics_prefix;
  // Escalations + uncertainty come from the hot-path metric set; per-stage
  // latency is measured by predict_latency_, exposed below as histogram
  // callbacks.
  routing_metrics_ = obs::RoutingMetricSet::Create(registry, prefix);
  for (int i = 0; i < kNumPredictionSources; ++i) {
    const auto source = static_cast<PredictionSource>(i);
    const std::string label =
        "{stage=\"" + std::string(PredictionSourceName(source)) + "\"}";
    registry->RegisterCounterCallback(
        this, prefix + "predictions_total" + label, [this, i] {
          return source_counts_[i].load(std::memory_order_relaxed);
        });
    registry->RegisterHistogramCallback(
        this, prefix + "predict_latency_ns" + label, [this, i] {
          return predict_latency_.histogram_snapshot(static_cast<size_t>(i));
        });
  }
  registry->RegisterCounterCallback(this, prefix + "cache_hits_total",
                                    [this] { return cache_.hits(); });
  registry->RegisterCounterCallback(this, prefix + "cache_misses_total",
                                    [this] { return cache_.misses(); });
  registry->RegisterCounterCallback(this, prefix + "cache_evictions_total",
                                    [this] { return cache_.evictions(); });
  registry->RegisterGaugeCallback(
      this, prefix + "cache_entries",
      [this] { return static_cast<double>(cache_.size()); });
  registry->RegisterGaugeCallback(
      this, prefix + "pool_entries",
      [this] { return static_cast<double>(pool_size()); });
  registry->RegisterGaugeCallback(
      this, prefix + "resident_memory_bytes",
      [this] { return static_cast<double>(LocalMemoryBytes()); });
  registry->RegisterCounterCallback(
      this, prefix + "local_trainings_total",
      [this] { return static_cast<uint64_t>(trainings()); });
  if (recalibrator_ != nullptr) {
    // Atomic reads only: a scrape must stay TSan-clean against a
    // concurrent Observe mutating the window.
    registry->RegisterGaugeCallback(this, prefix + "conformal_scale", [this] {
      return recalibrator_->scale();
    });
    registry->RegisterGaugeCallback(
        this, prefix + "conformal_window_size", [this] {
          return static_cast<double>(recalibrator_->window_size());
        });
    registry->RegisterCounterCallback(
        this, prefix + "conformal_observations_total",
        [this] { return recalibrator_->observations(); });
  }
  registry->RegisterGaugeCallback(
      this, prefix + "threadpool_queue_depth", [] {
        return static_cast<double>(ThreadPool::Shared().queue_depth());
      });
  registry->RegisterCounterCallback(
      this, prefix + "threadpool_tasks_total",
      [] { return ThreadPool::Shared().tasks_run(); });
}

Prediction StagePredictor::Predict(const QueryContext& query) const {
  return PredictTraced(query, nullptr);
}

Prediction StagePredictor::PredictTraced(const QueryContext& query,
                                         obs::PredictionTrace* trace) const {
  // Routing metrics are recorded from a trace, so a metered predictor
  // traces every query.
  obs::PredictionTrace metered;
  if (trace == nullptr && routing_metrics_.enabled()) trace = &metered;
  const auto start = std::chrono::steady_clock::now();
  const std::optional<double> cached = cache_.Predict(query.feature_hash);
  // A hit never reads the model, so only a miss takes the snapshot (a lock
  // and a reference count) and the conformal scale. The snapshot keeps the
  // model alive through the call even if a retrain swaps it meanwhile.
  const std::shared_ptr<const local::LocalModel> local =
      cached ? nullptr : local_model_snapshot();
  const Prediction out = RouteHierarchical(
      config_, query, cached, local.get(), options_.global_model,
      options_.instance, trace, cached ? 1.0 : conformal_scale());
  const uint64_t nanos = ElapsedNanos(start);

  source_counts_[static_cast<int>(out.source)].fetch_add(
      1, std::memory_order_relaxed);
  predict_latency_.Record(static_cast<size_t>(out.source), nanos);
  if (trace != nullptr) {
    trace->total_nanos = nanos;
    if (routing_metrics_.enabled()) routing_metrics_.Record(*trace);
  }
  return out;
}

void StagePredictor::Observe(const QueryContext& query, double exec_seconds) {
  Observe(query, exec_seconds, /*inline_retrain=*/true);
}

bool StagePredictor::Observe(const QueryContext& query, double exec_seconds,
                             bool inline_retrain) {
  // A non-finite outcome would be cached and served back verbatim.
  STAGE_CHECK(std::isfinite(exec_seconds) && exec_seconds >= 0.0);
  std::lock_guard<std::mutex> observe_lock(observe_mutex_);

  // §4.8: score the *current* local model on the completed query and feed
  // the normalized residual to the recalibrator — before the cache/pool
  // mutations below, so the residual reflects the model that actually
  // predicted this query. Sentinel residuals (unusable sigma: NaN from
  // NormalizedResidual) are ignored by the recalibrator.
  if (recalibrator_ != nullptr) {
    const std::shared_ptr<const local::LocalModel> model =
        local_model_snapshot();
    if (model != nullptr && model->trained()) {
      const local::LocalModel::Output out = model->Predict(query.features);
      recalibrator_->Observe(calib::NormalizedResidual(
          out.exec_seconds, out.log_std(), exec_seconds));
    }
  }

  // §4.3 pool deduplication: repeats are the cache's job; only cache misses
  // diversify the pool. The was-cached check and the observation happen
  // under one cache lock.
  const bool was_cached =
      cache_.Observe(query.feature_hash, exec_seconds, query.tick);

  bool request_retrain = false;
  {
    std::lock_guard<std::mutex> pool_lock(pool_mutex_);
    if (!was_cached) {
      pool_.Add(query.features, exec_seconds);
      ++observed_since_train_;
    }
    // "A training has been kicked off" stands in for "the local model is
    // trained", so a deferred first training is requested exactly once.
    const bool first_training = !first_train_requested_ &&
                                pool_.size() >= config_.min_train_size;
    const bool scheduled_training =
        first_train_requested_ &&
        observed_since_train_ >= config_.retrain_interval &&
        pool_.size() >= config_.min_train_size;
    if (first_training || scheduled_training) {
      request_retrain = true;
      first_train_requested_ = true;
      observed_since_train_ = 0;
    }
  }
  if (!request_retrain) return false;
  if (inline_retrain) {
    TrainOnce();
    return false;
  }
  return true;
}

void StagePredictor::TrainOnce() {
  // Snapshot the pool so training never holds the write-path lock.
  local::TrainingPool snapshot = [this] {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    return pool_;
  }();
  auto fresh = std::make_shared<local::LocalModel>(config_.local);
  fresh->Train(snapshot);
  if (!fresh->trained()) return;  // Empty snapshot: nothing to publish.
  PublishModel(std::move(fresh));
  trainings_.fetch_add(1, std::memory_order_relaxed);
}

void StagePredictor::PublishModel(
    std::shared_ptr<const local::LocalModel> fresh) {
  // Double-buffer swap: readers holding the old snapshot finish on it (and
  // free it with the last reference); new Predicts see the fresh model.
  std::lock_guard<std::mutex> lock(model_mutex_);
  model_ = std::move(fresh);
}

std::shared_ptr<const local::LocalModel> StagePredictor::local_model_snapshot()
    const {
  std::lock_guard<std::mutex> lock(model_mutex_);
  return model_;
}

namespace {
constexpr uint32_t kStateMagic = 0x53535256;  // "SSRV".
// v2: the cache section is one "SCCH" stream (v1 wrapped it in a sharded
// "SSHC" header with a shard count); v1 streams fail the header check.
constexpr uint32_t kStateVersion = 2;
}  // namespace

bool StagePredictor::SaveState(std::ostream& out, std::string* error) const {
  // Pausing Observe (not Predict) pins one consistent cut: every
  // observation is either fully in the snapshot (cache AND pool) or fully
  // after it. A concurrent training may still publish a model mid-snapshot;
  // the single shared_ptr load below keeps the captured model coherent.
  std::lock_guard<std::mutex> observe_lock(observe_mutex_);
  WriteHeader(out, kStateMagic, kStateVersion);
  cache_.Save(out);
  {
    std::lock_guard<std::mutex> pool_lock(pool_mutex_);
    pool_.Save(out);
    WritePod<uint64_t>(out, observed_since_train_);
    WritePod<uint8_t>(out, first_train_requested_ ? 1 : 0);
  }
  const std::shared_ptr<const local::LocalModel> model =
      local_model_snapshot();
  WritePod<uint8_t>(out, model ? 1 : 0);
  if (model) model->Save(out);
  WritePod<int32_t>(out, trainings_.load(std::memory_order_relaxed));
  // Appended only when calibration is on, so flag-off predictors keep
  // producing the exact legacy byte stream.
  if (recalibrator_ != nullptr) recalibrator_->Save(out);
  if (!out) {
    SetError(error, "predictor state write failed");
    return false;
  }
  return true;
}

bool StagePredictor::LoadState(std::istream& in, std::string* error) {
  std::lock_guard<std::mutex> observe_lock(observe_mutex_);
  // Every section is parsed into staging before any is committed, so a
  // stream that fails anywhere leaves the predictor exactly as it was.
  if (!ReadHeader(in, kStateMagic, kStateVersion)) {
    SetError(error, "bad predictor state header");
    return false;
  }
  cache::ExecTimeCache::Staged cache;
  if (!cache_.Parse(in, &cache)) {
    SetError(error, "malformed exec-time cache payload");
    return false;
  }
  local::TrainingPool pool(config_.pool);
  if (!pool.Load(in)) {
    SetError(error, "malformed training pool payload");
    return false;
  }
  uint64_t observed_since_train = 0;
  uint8_t first_train_requested = 0;
  if (!ReadPod(in, &observed_since_train) ||
      !ReadPod(in, &first_train_requested)) {
    SetError(error, "truncated retrain cadence state");
    return false;
  }
  uint8_t has_model = 0;
  if (!ReadPod(in, &has_model)) {
    SetError(error, "truncated local model flag");
    return false;
  }
  std::shared_ptr<local::LocalModel> model;
  if (has_model != 0) {
    model = std::make_shared<local::LocalModel>(config_.local);
    if (!model->Load(in)) {
      SetError(error, "malformed local model payload");
      return false;
    }
  }
  int32_t trainings = 0;
  if (!ReadPod(in, &trainings)) {
    SetError(error, "truncated trainings counter");
    return false;
  }
  // The last section; the recalibrator's Load is itself transactional, so
  // nothing is committed yet when it fails.
  if (recalibrator_ != nullptr && !recalibrator_->Load(in)) {
    SetError(error, "malformed conformal recalibrator payload");
    return false;
  }
  cache_.Commit(std::move(cache));
  {
    std::lock_guard<std::mutex> pool_lock(pool_mutex_);
    pool_ = std::move(pool);
    observed_since_train_ = static_cast<size_t>(observed_since_train);
    first_train_requested_ = first_train_requested != 0;
  }
  PublishModel(std::move(model));
  trainings_.store(trainings, std::memory_order_relaxed);
  return true;
}

size_t StagePredictor::ApproxResidentBytes() const {
  const std::shared_ptr<const local::LocalModel> local =
      local_model_snapshot();
  size_t pool_bytes = 0;
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    pool_bytes = pool_.MemoryBytes();
  }
  // The fixed tail covers the predictor object itself.
  return cache_.MemoryBytes() + pool_bytes +
         (local ? local->MemoryBytes() : 0) + sizeof(StagePredictor);
}

size_t StagePredictor::LocalMemoryBytes() const {
  const std::shared_ptr<const local::LocalModel> local =
      local_model_snapshot();
  return cache_.MemoryBytes() + (local ? local->MemoryBytes() : 0);
}

uint64_t StagePredictor::total_predictions() const {
  uint64_t total = 0;
  for (const auto& count : source_counts_) {
    total += count.load(std::memory_order_relaxed);
  }
  return total;
}

std::array<uint64_t, kNumPredictionSources> StagePredictor::SourceCounts()
    const {
  std::array<uint64_t, kNumPredictionSources> counts{};
  for (int i = 0; i < kNumPredictionSources; ++i) {
    counts[static_cast<size_t>(i)] =
        source_counts_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

void StagePredictor::SeedSourceCounts(
    const std::array<uint64_t, kNumPredictionSources>& counts) {
  for (int i = 0; i < kNumPredictionSources; ++i) {
    source_counts_[i].store(counts[static_cast<size_t>(i)],
                            std::memory_order_relaxed);
  }
}

size_t StagePredictor::pool_size() const {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  return pool_.size();
}

std::vector<std::string> StagePredictor::PredictLatencySlotNames() {
  std::vector<std::string> names;
  names.reserve(kNumPredictionSources);
  for (int i = 0; i < kNumPredictionSources; ++i) {
    names.emplace_back(
        PredictionSourceName(static_cast<PredictionSource>(i)));
  }
  return names;
}

}  // namespace stage::core
