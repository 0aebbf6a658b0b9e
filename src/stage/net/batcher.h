#ifndef STAGE_NET_BATCHER_H_
#define STAGE_NET_BATCHER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "stage/core/predictor.h"
#include "stage/fleet_serve/fleet_snapshot.h"
#include "stage/plan/plan.h"

namespace stage::net {

// One decoded predict request waiting for a batch slot. The plan lives on
// the heap so the QueryContext's interior pointer survives moves.
struct BatchItem {
  uint64_t conn_id = 0;     // Connection the response routes back to.
  int worker = 0;           // Worker index owning that connection.
  uint64_t request_id = 0;  // Echoed to the client.
  fleet_serve::TenantId tenant = 0;
  std::unique_ptr<plan::Plan> plan;
  core::QueryContext context{};
  std::chrono::steady_clock::time_point enqueue_time{};
};

enum class SubmitResult {
  kAccepted = 0,
  kOverloaded,  // Bounded queue full — caller replies kOverloaded.
  kStopped,     // Stop/Drain started — caller replies kShuttingDown.
};

enum class FlushReason {
  kFull = 0,  // max_batch items were queued.
  kTimeout,   // Partial batch: the consumer came free with fewer than
              // max_batch queued.
  kDrain,     // Shutdown drain of whatever remained queued.
};

inline constexpr int kNumFlushReasons = 3;

std::string_view FlushReasonName(FlushReason reason);

struct MicroBatcherConfig {
  // A flush carries at most this many items.
  size_t max_batch = 64;

  // Bounded-queue backpressure: Submit returns kOverloaded beyond this.
  size_t queue_bound = 1024;

  // Empty when usable, else a description of the first problem.
  std::string Validate() const;
};

// The micro-batching aggregator between the network edge and
// FleetService::PredictBatch. Single consumer thread; producers (the
// server's worker threads) call Submit.
//
// Natural batching: the consumer takes everything queued, up to
// max_batch, the moment it is free, and never waits on a timer. A lone
// request on an idle batcher flushes at once; requests that arrive while
// a flush runs queue up and form the next batch, so batch size follows
// load: one under sparse traffic, max_batch under a backlog. Collecting
// batch N+1 overlaps computing batch N.
//
// The flush callback runs on the batcher thread with no locks held, so it
// may do real work (grouped PredictBatch + completion delivery). Items are
// handed over in Submit order.
class MicroBatcher {
 public:
  using FlushFn = std::function<void(std::vector<BatchItem>, FlushReason)>;

  // Aborts via STAGE_CHECK when `config` fails Validate().
  MicroBatcher(const MicroBatcherConfig& config, FlushFn flush);
  ~MicroBatcher();  // Implies Drain().

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  SubmitResult Submit(BatchItem item);

  // Stops accepting work without waiting: every later Submit returns
  // kStopped, and whatever is still queued leaves as kDrain batches once
  // the consumer is free. Idempotent.
  void Stop();

  // Stop(), then flushes everything still queued (as kDrain batches, in
  // order) and joins the batcher thread. Idempotent. After Drain returns,
  // every accepted item has been handed to the callback.
  void Drain();

  // ---- Telemetry (safe from any thread) ----
  uint64_t submitted() const {
    return submitted_.load(std::memory_order_relaxed);
  }
  uint64_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }
  uint64_t flushes(FlushReason reason) const {
    return flushes_[static_cast<int>(reason)].load(std::memory_order_relaxed);
  }
  size_t queue_depth() const {
    return queue_depth_.load(std::memory_order_relaxed);
  }

 private:
  void Loop();

  const MicroBatcherConfig config_;
  const FlushFn flush_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<BatchItem> queue_;
  bool stopping_ = false;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> flushes_[kNumFlushReasons] = {};
  std::atomic<size_t> queue_depth_{0};

  std::thread thread_;
};

}  // namespace stage::net

#endif  // STAGE_NET_BATCHER_H_
