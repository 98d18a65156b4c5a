#include "serve/batcher.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/error.hpp"

namespace wknng::serve {

const char* query_status_name(QueryStatus s) {
  switch (s) {
    case QueryStatus::kOk: return "ok";
    case QueryStatus::kTimeout: return "timeout";
    case QueryStatus::kShed: return "shed";
    case QueryStatus::kFailed: return "failed";
  }
  return "unknown";
}

MicroBatcher::MicroBatcher(std::size_t max_batch, std::size_t capacity)
    : max_batch_(std::max<std::size_t>(1, max_batch)), capacity_(capacity) {
  WKNNG_CHECK_MSG(capacity_ > 0, "batcher capacity must be positive");
}

bool MicroBatcher::push(Request&& r) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_ || queue_.size() >= capacity_) return false;
    queue_.push_back(std::move(r));
  }
  ready_cv_.notify_one();
  return true;
}

std::vector<Request> MicroBatcher::next_batch() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    ready_cv_.wait(lock,
                   [&] { return closed_ || (holds_ == 0 && !queue_.empty()); });
    if (queue_.empty()) return {};  // closed and drained

    // A partial batch waits on the condition once more, with a deadline that
    // has already passed. The kernel still parks the thread for its timer
    // slack (50 us by default on Linux; measured ~56 us), and the burst of
    // resubmissions that follows a finished batch (closed-loop clients
    // answered together) lands in this batch in that time rather than
    // splitting into batches of one. Cutting the batch at once instead
    // raised bench/e2e closed-loop p95 by about half on every workload
    // (4-vCPU x86 VM) while lowering open-loop p50 by ~15%.
    ready_cv_.wait_until(lock, std::chrono::steady_clock::now(), [&] {
      return closed_ || queue_.size() >= max_batch_;
    });
    // Re-check: another executor may have taken the queue, or a hold begun.
    if (!queue_.empty() && (closed_ || holds_ == 0)) break;
  }

  const std::size_t take = std::min(max_batch_, queue_.size());
  std::vector<Request> batch;
  batch.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  // More work may remain (a backlog past max_batch): let the next executor
  // take it immediately.
  if (!queue_.empty()) ready_cv_.notify_one();
  return batch;
}

MicroBatcher::Hold MicroBatcher::hold() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++holds_;
  return Hold(this);
}

MicroBatcher::Hold::Hold(Hold&& other) noexcept
    : owner_(std::exchange(other.owner_, nullptr)) {}

void MicroBatcher::Hold::release() {
  MicroBatcher* owner = std::exchange(owner_, nullptr);
  if (owner == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(owner->mutex_);
    if (--owner->holds_ > 0) return;
  }
  owner->ready_cv_.notify_all();
}

void MicroBatcher::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  ready_cv_.notify_all();
}

std::size_t MicroBatcher::depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

bool MicroBatcher::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

}  // namespace wknng::serve
