// Schedule-policy unit tests plus the schedule-invariance property test for
// launch_warps: a well-formed kernel's results and work counters must not
// depend on the warp interleaving or the scheduling grain.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <vector>

#include "common/thread_pool.hpp"
#include "simt/launch.hpp"
#include "simt/memory.hpp"
#include "simt/schedule.hpp"

namespace wknng::simt {
namespace {

bool is_permutation_of_iota(std::vector<std::size_t> order, std::size_t n) {
  if (order.size() != n) return false;
  std::sort(order.begin(), order.end());
  for (std::size_t i = 0; i < n; ++i) {
    if (order[i] != i) return false;
  }
  return true;
}

TEST(ScheduleOrderTest, EveryPolicyYieldsAPermutation) {
  for (const std::size_t n : {0u, 1u, 7u, 64u, 129u}) {
    for (const std::size_t grain : {1u, 4u, 32u}) {
      for (const ScheduleSpec& spec : fuzzing_schedules(3)) {
        EXPECT_TRUE(is_permutation_of_iota(schedule_order(n, grain, spec), n))
            << schedule_policy_name(spec.policy) << " seed " << spec.seed
            << " n " << n << " grain " << grain;
      }
    }
  }
}

TEST(ScheduleOrderTest, SequentialAndReverseAreExactOrders) {
  const auto seq = schedule_order(5, 1, {SchedulePolicy::kSequential, 0});
  EXPECT_EQ(seq, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  const auto rev = schedule_order(5, 1, {SchedulePolicy::kReverse, 0});
  EXPECT_EQ(rev, (std::vector<std::size_t>{4, 3, 2, 1, 0}));
}

TEST(ScheduleOrderTest, GrainKeepsBlocksContiguous) {
  const auto order = schedule_order(10, 4, {SchedulePolicy::kShuffled, 7});
  // Blocks {0..3}, {4..7}, {8..9} must appear as contiguous runs.
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    if (order[i] % 4 != 3 && order[i] + 1 < 10 && order[i] / 4 == (order[i] + 1) / 4) {
      EXPECT_EQ(order[i + 1], order[i] + 1) << "at " << i;
    }
  }
}

TEST(ScheduleOrderTest, SeedsProduceDistinctPermutations) {
  const auto a = schedule_order(64, 1, {SchedulePolicy::kShuffled, 1});
  const auto b = schedule_order(64, 1, {SchedulePolicy::kShuffled, 2});
  EXPECT_NE(a, b);
  // And the same seed is reproducible.
  EXPECT_EQ(a, schedule_order(64, 1, {SchedulePolicy::kShuffled, 1}));
}

TEST(ScheduleOrderTest, DynamicPolicyRejected) {
  EXPECT_ANY_THROW(schedule_order(4, 1, {SchedulePolicy::kDynamic, 0}));
}

// --- Schedule invariance property: reduction kernel ------------------------
// Every warp contributes f(warp_id) to a global accumulator via atomicAdd
// and writes a per-warp slot. Sum and slots must be identical across all
// policies, seeds and grains.
TEST(ScheduleInvarianceTest, ReductionKernelIdenticalAcrossSchedules) {
  ThreadPool pool(2);
  const std::size_t num_warps = 97;

  auto run = [&](const ScheduleSpec& spec, std::size_t grain) {
    DeviceBuffer<std::uint64_t> total(1, 0);
    DeviceBuffer<std::uint64_t> slots(num_warps, 0);
    StatsAccumulator acc;
    LaunchConfig config;
    config.grain = grain;
    config.schedule = spec;
    launch_warps(pool, num_warps, config, &acc, [&](Warp& w) {
      const std::uint64_t v = (w.id() + 1) * 3ull;
      std::atomic_ref<std::uint64_t>(total[0]).fetch_add(
          v, std::memory_order_relaxed);
      ++w.stats().atomic_ops;
      plain_store(slots[w.id()], v);
    });
    Stats s = acc.total();
    s.scratch_bytes_peak = 0;  // max over warps — not order-sensitive either,
                               // but normalise anyway
    return std::tuple(total[0], std::vector<std::uint64_t>(
                                    slots.data(), slots.data() + num_warps),
                      s.atomic_ops, s.warps_executed);
  };

  const auto reference = run({SchedulePolicy::kSequential, 0}, 1);
  for (const std::size_t grain : {1u, 4u, 32u}) {
    for (const ScheduleSpec& spec : fuzzing_schedules(3)) {
      EXPECT_EQ(run(spec, grain), reference)
          << schedule_policy_name(spec.policy) << "/" << spec.seed
          << " grain " << grain;
    }
    // The dynamic (threaded) path must agree too: the kernel is commutative.
    EXPECT_EQ(run({SchedulePolicy::kDynamic, 0}, grain), reference);
  }
}

}  // namespace
}  // namespace wknng::simt
