#include "simt/memory.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace wknng::simt {
namespace {

TEST(DeviceBuffer, FillsOnConstruction) {
  DeviceBuffer<std::uint64_t> buf(16, 42);
  ASSERT_EQ(buf.size(), 16u);
  for (std::size_t i = 0; i < buf.size(); ++i) EXPECT_EQ(buf[i], 42u);
}

TEST(DeviceBuffer, SpanViewsStorage) {
  DeviceBuffer<int> buf(4, 0);
  buf.span()[2] = 5;
  EXPECT_EQ(buf[2], 5);
  EXPECT_EQ(buf.subspan(2, 2)[0], 5);
}

TEST(AtomicOps, LoadStoreRoundTrip) {
  std::uint64_t cell = 0;
  atomic_store(cell, std::uint64_t{99});
  EXPECT_EQ(atomic_load(cell), 99ULL);
}

TEST(AtomicOps, CasSuccessAndFailure) {
  Stats stats;
  std::uint64_t cell = 7;
  std::uint64_t expected = 7;
  EXPECT_TRUE(atomic_cas(cell, expected, 8, stats));
  EXPECT_EQ(cell, 8u);
  EXPECT_EQ(stats.cas_retries, 0u);

  expected = 7;  // stale
  EXPECT_FALSE(atomic_cas(cell, expected, 9, stats));
  EXPECT_EQ(expected, 8u);  // updated with observed value
  EXPECT_EQ(cell, 8u);
  EXPECT_EQ(stats.cas_retries, 1u);
}

TEST(SpinLockArray, MutualExclusionUnderContention) {
  SpinLockArray locks(4);
  Stats stats_a, stats_b;
  std::uint64_t counter = 0;  // protected by lock 2
  auto worker = [&](Stats& s) {
    for (int i = 0; i < 100000; ++i) {
      locks.acquire(2, s);
      ++counter;  // non-atomic on purpose
      locks.release(2);
    }
  };
  std::thread t1(worker, std::ref(stats_a));
  std::thread t2(worker, std::ref(stats_b));
  t1.join();
  t2.join();
  EXPECT_EQ(counter, 200000u);
  EXPECT_EQ(stats_a.lock_acquires + stats_b.lock_acquires, 200000u);
}

TEST(SpinLockArray, IndependentLocks) {
  SpinLockArray locks(3);
  Stats stats;
  // Holding lock 0 does not block 1 or 2: acquire would spin forever.
  locks.acquire(0, stats);
  locks.acquire(1, stats);
  locks.acquire(2, stats);
  locks.release(0);
  locks.release(1);
  locks.release(2);
  EXPECT_EQ(stats.lock_acquires, 3u);
  EXPECT_EQ(stats.lock_spins, 0u);
}

}  // namespace
}  // namespace wknng::simt
