#include "stage/net/batcher.h"

#include <algorithm>
#include <utility>

#include "stage/common/macros.h"

namespace stage::net {

std::string_view FlushReasonName(FlushReason reason) {
  switch (reason) {
    case FlushReason::kFull:
      return "full";
    case FlushReason::kTimeout:
      return "timeout";
    case FlushReason::kDrain:
      return "drain";
  }
  return "unknown";
}

std::string MicroBatcherConfig::Validate() const {
  if (max_batch == 0) return "max_batch must be >= 1";
  if (queue_bound < max_batch) {
    return "queue_bound must be >= max_batch (a full batch must fit)";
  }
  return "";
}

MicroBatcher::MicroBatcher(const MicroBatcherConfig& config, FlushFn flush)
    : config_(config), flush_(std::move(flush)) {
  const std::string error = config_.Validate();
  STAGE_CHECK_MSG(error.empty(), error.c_str());
  STAGE_CHECK(flush_ != nullptr);
  thread_ = std::thread([this] { Loop(); });
}

MicroBatcher::~MicroBatcher() { Drain(); }

SubmitResult MicroBatcher::Submit(BatchItem item) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return SubmitResult::kStopped;
    if (queue_.size() >= config_.queue_bound) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return SubmitResult::kOverloaded;
    }
    item.enqueue_time = std::chrono::steady_clock::now();
    queue_.push_back(std::move(item));
    queue_depth_.store(queue_.size(), std::memory_order_relaxed);
    submitted_.fetch_add(1, std::memory_order_relaxed);
  }
  // Wakes an idle consumer; while a flush runs nobody waits and this is a
  // no-op, the item simply joins the next batch.
  cv_.notify_one();
  return SubmitResult::kAccepted;
}

void MicroBatcher::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_one();
}

void MicroBatcher::Drain() {
  Stop();
  if (thread_.joinable()) thread_.join();
}

void MicroBatcher::Loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) break;  // stopping_ with nothing left to drain.

    const size_t take = std::min(queue_.size(), config_.max_batch);
    const FlushReason reason = stopping_              ? FlushReason::kDrain
                               : take >= config_.max_batch
                                   ? FlushReason::kFull
                                   : FlushReason::kTimeout;
    std::vector<BatchItem> batch;
    batch.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    queue_depth_.store(queue_.size(), std::memory_order_relaxed);
    flushes_[static_cast<int>(reason)].fetch_add(1,
                                                 std::memory_order_relaxed);

    lock.unlock();
    flush_(std::move(batch), reason);
    lock.lock();
  }
}

}  // namespace stage::net
