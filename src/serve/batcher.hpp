#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <vector>

#include "common/topk.hpp"

namespace wknng::serve {

/// How one served query ended.
enum class QueryStatus : std::uint8_t {
  kOk,       ///< neighbors delivered within the deadline
  kTimeout,  ///< typed timeout result (DeadlineExceededError vocabulary)
  kShed,     ///< rejected at admission (OverloadShedError vocabulary)
  kFailed,   ///< batch execution threw a typed error; engine stayed live
};

const char* query_status_name(QueryStatus s);

/// What a submitted query's future resolves to. Timeout results may still
/// carry neighbors (the batch finished after the deadline — late but usable);
/// shed and pre-dispatch timeouts carry none.
struct QueryResult {
  QueryStatus status = QueryStatus::kOk;
  std::vector<Neighbor> neighbors;   ///< valid entries only, sorted
  std::uint64_t request_id = 0;
  std::uint64_t tag = 0;             ///< determinism tag the search ran under
  std::uint64_t snapshot_version = 0;
  std::uint64_t points_visited = 0;
  double queue_us = 0.0;             ///< enqueue → batch dispatch
  double total_us = 0.0;             ///< enqueue → future fulfilled
  std::string error;                 ///< typed error text when status != kOk
};

/// One queued request. `tag` seeds the query's RNG stream in
/// core::search_batch — assigned once at admission so the result is
/// independent of how requests get batched. `deadline` of time_point::max()
/// means none.
struct Request {
  std::uint64_t id = 0;
  std::uint64_t tag = 0;
  std::vector<float> query;
  std::chrono::steady_clock::time_point enqueued{};
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  std::promise<QueryResult> promise;
};

/// Bounded MPMC request queue plus the micro-batch policy. Batch formation
/// is work-conserving: an idle executor takes everything queued, up to
/// `max_batch` requests in FIFO order, without waiting for a full batch, so
/// batches grow only from the backlog that builds while executors are busy. Push never blocks — a
/// full queue rejects (the caller sheds the request with a typed result),
/// which bounds memory and queueing delay under overload. Multiple executor
/// threads may call next_batch concurrently.
class MicroBatcher {
 public:
  /// Scoped dispatch hold (see hold()). Move-only; releases on destruction
  /// or on release(). Must not outlive the batcher.
  class Hold {
   public:
    Hold(Hold&& other) noexcept;
    Hold& operator=(Hold&&) = delete;
    ~Hold() { release(); }
    void release();

   private:
    friend class MicroBatcher;
    explicit Hold(MicroBatcher* owner) : owner_(owner) {}
    MicroBatcher* owner_;
  };

  MicroBatcher(std::size_t max_batch, std::size_t capacity);

  /// Enqueues `r`; returns false (leaving `r` intact) when the queue is at
  /// capacity or the batcher is closed.
  bool push(Request&& r);

  /// Blocks until a request is queued and no hold is active, then returns
  /// the next micro-batch. An empty vector means the batcher was closed and
  /// fully drained — the executor should exit.
  std::vector<Request> next_batch();

  /// Holds dispatch until every returned Hold is released: admission goes
  /// on, so the queue fills (and sheds at capacity) and the first batch
  /// after release takes the whole backlog, up to `max_batch`. close()
  /// overrides a hold, so shutdown still drains.
  [[nodiscard]] Hold hold();

  /// Stops admission and wakes every waiter; queued requests still drain
  /// through next_batch.
  void close();

  std::size_t depth() const;
  bool closed() const;

 private:
  const std::size_t max_batch_;
  const std::size_t capacity_;

  mutable std::mutex mutex_;
  std::condition_variable ready_cv_;  // dispatchable work, or closed
  std::deque<Request> queue_;
  std::size_t holds_ = 0;
  bool closed_ = false;
};

}  // namespace wknng::serve
