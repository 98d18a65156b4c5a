#include "serve/batcher.hpp"

#include <algorithm>

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

MicroBatcher::MicroBatcher(std::size_t max_batch, std::uint64_t max_delay_us,
                           std::size_t capacity)
    : max_batch_(std::max<std::size_t>(1, max_batch)),
      max_delay_(std::chrono::microseconds(max_delay_us)),
      capacity_(capacity) {
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
    ready_cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) return {};  // closed and drained

    // A batch is open: flush when full, when the oldest request has waited
    // its linger, or at close. With zero linger the deadline has already
    // passed, so whatever is queued goes out at once. wait_until re-checks
    // because another executor may steal the queue while we sleep.
    const auto flush_at = queue_.front().enqueued + max_delay_;
    ready_cv_.wait_until(lock, flush_at, [&] {
      return closed_ || queue_.size() >= max_batch_ || queue_.empty();
    });
    if (queue_.empty()) continue;  // raced with another executor

    const std::size_t take = std::min(max_batch_, queue_.size());
    std::vector<Request> batch;
    batch.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    // More work may remain (e.g. close() flushed a long backlog): let the
    // next executor start forming its batch immediately.
    if (!queue_.empty()) ready_cv_.notify_one();
    return batch;
  }
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
