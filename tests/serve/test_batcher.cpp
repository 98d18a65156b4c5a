#include "serve/batcher.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <optional>
#include <vector>

namespace wknng::serve {
namespace {

using Clock = std::chrono::steady_clock;

Request make_request(std::uint64_t id) {
  Request r;
  r.id = id;
  r.tag = id;
  r.query = {1.0f, 2.0f};
  r.enqueued = Clock::now();
  return r;
}

TEST(MicroBatcher, FlushesImmediatelyAtMaxBatch) {
  MicroBatcher b(4, /*capacity=*/64);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(b.push(make_request(i)));
  }
  const std::vector<Request> batch = b.next_batch();
  ASSERT_EQ(batch.size(), 4u);
  // FIFO admission order survives into the batch.
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(batch[i].id, i);
}

TEST(MicroBatcher, ZeroLingerDispatchesALoneRequestAtOnce) {
  MicroBatcher b(32, /*capacity=*/64);
  EXPECT_TRUE(b.push(make_request(5)));
  const std::vector<Request> batch = b.next_batch();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].id, 5u);
  EXPECT_EQ(b.depth(), 0u);
}

TEST(MicroBatcher, ZeroLingerStillCapsABacklogAtMaxBatchInFifoOrder) {
  MicroBatcher b(32, /*capacity=*/128);
  for (std::uint64_t i = 0; i < 70; ++i) EXPECT_TRUE(b.push(make_request(i)));
  std::uint64_t next_id = 0;
  for (const std::size_t expect : {32u, 32u, 6u}) {
    const std::vector<Request> batch = b.next_batch();
    ASSERT_EQ(batch.size(), expect);
    for (const Request& r : batch) EXPECT_EQ(r.id, next_id++);
  }
  EXPECT_EQ(b.depth(), 0u);
}

TEST(MicroBatcher, PushRejectsAtCapacityLeavingRequestIntact) {
  MicroBatcher b(8, /*capacity=*/2);
  EXPECT_TRUE(b.push(make_request(0)));
  EXPECT_TRUE(b.push(make_request(1)));
  Request rejected = make_request(2);
  EXPECT_FALSE(b.push(std::move(rejected)));
  // The caller still owns the request: id, payload, and a usable promise.
  EXPECT_EQ(rejected.id, 2u);
  EXPECT_EQ(rejected.query.size(), 2u);
  auto fut = rejected.promise.get_future();
  rejected.promise.set_value(QueryResult{});
  EXPECT_EQ(fut.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(b.depth(), 2u);
}

TEST(MicroBatcher, CloseDrainsBacklogThenReturnsEmpty) {
  MicroBatcher b(2, 64);
  for (std::uint64_t i = 0; i < 3; ++i) EXPECT_TRUE(b.push(make_request(i)));
  b.close();
  EXPECT_TRUE(b.closed());
  EXPECT_FALSE(b.push(make_request(9)));  // no admission after close

  EXPECT_EQ(b.next_batch().size(), 2u);
  EXPECT_EQ(b.next_batch().size(), 1u);
  EXPECT_TRUE(b.next_batch().empty());  // drained: executor exit signal
}

TEST(MicroBatcher, HeldQueueLeavesAsOneBatchOnRelease) {
  MicroBatcher b(32, /*capacity=*/64);
  MicroBatcher::Hold hold = b.hold();
  // The executor is already waiting when the requests arrive; without the
  // hold it could take the first push alone.
  std::future<std::vector<Request>> taken =
      std::async(std::launch::async, [&] { return b.next_batch(); });
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_TRUE(b.push(make_request(i)));
  // Nothing leaves while held, however long the executor waits.
  EXPECT_EQ(taken.wait_for(std::chrono::milliseconds(10)),
            std::future_status::timeout);
  EXPECT_EQ(b.depth(), 5u);
  hold.release();
  const std::vector<Request> batch = taken.get();
  ASSERT_EQ(batch.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(batch[i].id, i);
}

TEST(MicroBatcher, DispatchWaitsForEveryHold) {
  MicroBatcher b(32, /*capacity=*/64);
  MicroBatcher::Hold outer = b.hold();
  std::optional<MicroBatcher::Hold> inner(b.hold());
  std::future<std::vector<Request>> taken =
      std::async(std::launch::async, [&] { return b.next_batch(); });
  for (std::uint64_t i = 0; i < 3; ++i) EXPECT_TRUE(b.push(make_request(i)));
  inner.reset();  // one hold left: the queue stays put
  EXPECT_EQ(taken.wait_for(std::chrono::milliseconds(10)),
            std::future_status::timeout);
  EXPECT_EQ(b.depth(), 3u);
  MicroBatcher::Hold moved = std::move(outer);
  outer.release();  // moved-from: a no-op
  EXPECT_EQ(b.depth(), 3u);
  moved.release();
  EXPECT_EQ(taken.get().size(), 3u);
}

TEST(MicroBatcher, CloseOverridesAnActiveHold) {
  MicroBatcher b(2, /*capacity=*/64);
  const MicroBatcher::Hold hold = b.hold();
  for (std::uint64_t i = 0; i < 3; ++i) EXPECT_TRUE(b.push(make_request(i)));
  b.close();
  EXPECT_EQ(b.next_batch().size(), 2u);
  EXPECT_EQ(b.next_batch().size(), 1u);
  EXPECT_TRUE(b.next_batch().empty());
}

TEST(MicroBatcher, StatusNamesAreStable) {
  EXPECT_STREQ(query_status_name(QueryStatus::kOk), "ok");
  EXPECT_STREQ(query_status_name(QueryStatus::kTimeout), "timeout");
  EXPECT_STREQ(query_status_name(QueryStatus::kShed), "shed");
  EXPECT_STREQ(query_status_name(QueryStatus::kFailed), "failed");
}

}  // namespace
}  // namespace wknng::serve
