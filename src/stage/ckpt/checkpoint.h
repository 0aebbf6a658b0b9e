#ifndef STAGE_CKPT_CHECKPOINT_H_
#define STAGE_CKPT_CHECKPOINT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "stage/calib/conformal.h"
#include "stage/ckpt/snapshot_file.h"
#include "stage/core/stage_predictor.h"
#include "stage/local/local_model.h"
#include "stage/obs/metrics.h"

namespace stage::ckpt {

// Crash-safe snapshot/warm-restart entry points (the deployment story of
// paper §4.4 extended to the whole predictor: "train once, ship the
// checkpoint to every instance" only works if the checkpoint is complete
// and restarts are warm). Each helper serializes the object's SaveState /
// Save stream into the CRC-checked envelope and publishes it with the
// write-tmp-then-rename protocol of snapshot_file.h.

// Full StagePredictor state (exec-time cache, pool, cadence, local model,
// and the recalibrator when calibration is on); a fleet_serve::TenantStack
// is a StagePredictor too. The loading predictor needs the writer's
// calibration flag and a cache capacity that holds the writer's entries,
// and is left untouched on failure.
bool SaveServiceSnapshot(const core::StagePredictor& predictor,
                         const std::string& path,
                         std::string* error = nullptr);
bool LoadServiceSnapshot(core::StagePredictor* predictor,
                         const std::string& path,
                         std::string* error = nullptr);

// Bare local model (the §4.3 ensemble, including the MAE member).
bool SaveLocalModelSnapshot(const local::LocalModel& model,
                            const std::string& path,
                            std::string* error = nullptr);
bool LoadLocalModelSnapshot(local::LocalModel* model, const std::string& path,
                            std::string* error = nullptr);

// Bare §4.8 conformal recalibrator (sliding residual window + published
// scale). The target's window_capacity must match the writer's; Load is
// transactional (false on mismatch/corruption, target untouched).
bool SaveRecalibratorSnapshot(const calib::ConformalRecalibrator& recalibrator,
                              const std::string& path,
                              std::string* error = nullptr);
bool LoadRecalibratorSnapshot(calib::ConformalRecalibrator* recalibrator,
                              const std::string& path,
                              std::string* error = nullptr);

// Background checkpointer: snapshots a StagePredictor to `path` every
// `interval`, on a dedicated thread, using the atomic-rename protocol — a
// crash at any instant leaves the last published snapshot loadable. The
// predictor's SaveState pauses writers (never readers) for the duration of
// the state serialization, so periodic checkpointing does not stall the
// prediction path. The predictor must outlive the checkpointer.
class PeriodicCheckpointer {
 public:
  struct Options {
    std::string path;
    std::chrono::milliseconds interval{60000};
    // When true, write one snapshot immediately on construction.
    bool checkpoint_on_start = false;
    // Optional observability sink: snapshots written/failed, bytes
    // published, and write duration are exposed under `metrics_prefix`.
    // Must outlive the checkpointer (callbacks unregister on destruction).
    obs::MetricsRegistry* metrics = nullptr;
    std::string metrics_prefix = "stage_ckpt_";
  };

  PeriodicCheckpointer(const core::StagePredictor& predictor,
                       Options options);
  ~PeriodicCheckpointer();

  PeriodicCheckpointer(const PeriodicCheckpointer&) = delete;
  PeriodicCheckpointer& operator=(const PeriodicCheckpointer&) = delete;

  // Writes one snapshot synchronously on the calling thread (safe to race
  // the background thread; the rename publication serializes in the
  // filesystem). Returns false and fills `error` on failure.
  bool TriggerNow(std::string* error = nullptr);

  // Stops the background thread after at most one more in-flight snapshot.
  // Idempotent; also called by the destructor.
  void Stop();

  uint64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }
  uint64_t failed() const { return failed_.load(std::memory_order_relaxed); }
  // Last failure message; empty when every snapshot so far succeeded.
  std::string last_error() const;

  // Bytes published across all successful snapshots, and the size of the
  // most recent one (0 before the first success).
  uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }
  uint64_t last_snapshot_bytes() const {
    return last_snapshot_bytes_.load(std::memory_order_relaxed);
  }

 private:
  void Loop();
  void RegisterMetrics();
  bool WriteOnce(std::string* error);

  const core::StagePredictor& predictor_;
  const Options options_;
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> last_snapshot_bytes_{0};
  obs::Histogram* write_duration_ns_ = nullptr;  // Owned by the registry.
  mutable std::mutex error_mutex_;
  std::string last_error_;
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  std::thread worker_;
};

}  // namespace stage::ckpt

#endif  // STAGE_CKPT_CHECKPOINT_H_
