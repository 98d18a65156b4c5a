// Tests of the shadow-state race detector (simt/race.hpp) against the three
// k-NN-set maintenance strategies — the acceptance harness of the schedule
// fuzzer: a deliberately racy strategy must be caught, the lock-based and
// atomic strategies must come out clean, and the instrumentation must be
// inert when no detector is installed.

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "common/topk.hpp"
#include "core/knn_set.hpp"
#include "simt/launch.hpp"
#include "simt/memory.hpp"
#include "simt/packed.hpp"
#include "simt/race.hpp"
#include "simt/schedule.hpp"

namespace wknng {
namespace {

using core::KnnSetArray;
using simt::AccessKind;
using simt::LaunchConfig;
using simt::Packed;
using simt::RaceDetector;
using simt::SchedulePolicy;
using simt::ScheduleSpec;
using simt::ScopedRaceDetection;
using simt::Warp;

/// Deterministic candidate stream: warp `w` submits `per_warp` candidates to
/// destination `dst`, with distances unique per (warp, i) pair.
std::uint64_t candidate(std::uint32_t warp, std::uint32_t dst, std::size_t i) {
  const float dist = 1.0f + static_cast<float>(warp) * 0.01f +
                     static_cast<float>(i) * 0.001f +
                     static_cast<float>(dst) * 0.1f;
  return Packed::make(dist, 1000u + warp * 100u + static_cast<std::uint32_t>(i));
}

/// The seeded bug: scan-and-replace-worst on the global row with PLAIN
/// loads/stores and NO lock — the mistake the detector exists to catch. It
/// writes past the strategy API on purpose, hence the const_cast.
void insert_racy(Warp& w, KnnSetArray& sets, std::uint32_t dst,
                 std::uint64_t cand) {
  auto* slots = const_cast<std::uint64_t*>(sets.row(dst));
  const std::size_t k = sets.k();
  std::size_t worst = 0;
  for (std::size_t s = 0; s < k; ++s) {
    const std::uint64_t v = simt::plain_load(slots[s]);
    if (!Packed::is_empty(v) && Packed::id(v) == Packed::id(cand)) return;
    if (v > simt::plain_load(slots[worst])) worst = s;
  }
  if (cand < simt::plain_load(slots[worst])) {
    simt::plain_store(slots[worst], cand);
    w.count_write(sizeof(std::uint64_t));
  }
}

struct Workload {
  std::size_t n = 4;
  std::size_t k = 6;
  std::size_t num_warps = 8;
  std::size_t per_warp = 12;
};

/// Runs `insert(warp, dst, cand)` for the full deterministic candidate
/// stream under one schedule.
template <typename InsertFn>
void run_inserts(ThreadPool& pool, const Workload& wl, ScheduleSpec schedule,
                 InsertFn&& insert) {
  LaunchConfig config;
  config.schedule = schedule;
  simt::launch_warps(pool, wl.num_warps, config, nullptr, [&](Warp& w) {
    for (std::size_t i = 0; i < wl.per_warp; ++i) {
      for (std::uint32_t dst = 0; dst < wl.n; ++dst) {
        insert(w, dst, candidate(w.id(), dst, i));
      }
    }
  });
}

TEST(RaceDetectorTest, SeededRacyStrategyIsCaught) {
  ThreadPool pool(2);
  const Workload wl;
  // A single deterministic schedule suffices: detection is access-set based,
  // so even a fully serial replay flags the missing lock.
  RaceDetector det;
  KnnSetArray sets(wl.n, wl.k);
  det.label_region(sets.row(0), wl.n * wl.k * sizeof(std::uint64_t),
                   "knn_sets");
  {
    ScopedRaceDetection scope(det);
    run_inserts(pool, wl, {SchedulePolicy::kSequential, 0},
                [&](Warp& w, std::uint32_t dst, std::uint64_t cand) {
                  insert_racy(w, sets, dst, cand);
                });
  }
  ASSERT_GE(det.race_count(), 1u);
  const auto reports = det.reports();
  EXPECT_EQ(reports.front().region, "knn_sets");
  EXPECT_NE(reports.front().first_warp, reports.front().second_warp);
  EXPECT_FALSE(reports.front().to_string().empty());
}

TEST(RaceDetectorTest, RacyStrategyCaughtUnderEveryFuzzingSchedule) {
  ThreadPool pool(2);
  const Workload wl;
  for (const ScheduleSpec& spec : simt::fuzzing_schedules(2)) {
    RaceDetector det;
    KnnSetArray sets(wl.n, wl.k);
    {
      ScopedRaceDetection scope(det);
      run_inserts(pool, wl, spec,
                  [&](Warp& w, std::uint32_t dst, std::uint64_t cand) {
                    insert_racy(w, sets, dst, cand);
                  });
    }
    EXPECT_GE(det.race_count(), 1u)
        << "schedule " << simt::schedule_policy_name(spec.policy) << "/"
        << spec.seed;
  }
}

TEST(RaceDetectorTest, BasicStrategyLockDisciplineIsClean) {
  ThreadPool pool(2);
  const Workload wl;
  RaceDetector det;
  KnnSetArray sets(wl.n, wl.k);
  {
    ScopedRaceDetection scope(det);
    run_inserts(pool, wl, {SchedulePolicy::kSequential, 0},
                [&](Warp& w, std::uint32_t dst, std::uint64_t cand) {
                  sets.insert_basic(w, dst, cand);
                });
  }
  EXPECT_EQ(det.race_count(), 0u);
  EXPECT_GT(det.plain_events(), 0u);  // the same accesses the racy test made
}

TEST(RaceDetectorTest, TiledStrategyIsClean) {
  ThreadPool pool(2);
  const Workload wl;
  RaceDetector det;
  KnnSetArray sets(wl.n, wl.k);
  {
    ScopedRaceDetection scope(det);
    run_inserts(pool, wl, {SchedulePolicy::kSequential, 0},
                [&](Warp& w, std::uint32_t dst, std::uint64_t cand) {
                  sets.insert(w, core::Strategy::kTiled, dst, cand);
                });
  }
  EXPECT_EQ(det.race_count(), 0u);
}

// "Flagged-or-linearizable": the atomic strategy uses only atomic accesses
// on the shared rows, so the detector must not flag it; and under every
// deterministic replay its result must equal the sequential reference —
// i.e. each observed outcome is a valid linearization of the inserts.
TEST(RaceDetectorTest, AtomicStrategyFlaggedOrLinearizable) {
  ThreadPool pool(2);
  const Workload wl;

  // Sequential reference via the host-side TopK.
  std::vector<std::vector<Neighbor>> expect(wl.n);
  for (std::uint32_t dst = 0; dst < wl.n; ++dst) {
    TopK top(wl.k);
    for (std::uint32_t warp = 0; warp < wl.num_warps; ++warp) {
      for (std::size_t i = 0; i < wl.per_warp; ++i) {
        const std::uint64_t c = candidate(warp, dst, i);
        top.push(Packed::dist(c), Packed::id(c));
      }
    }
    expect[dst] = top.take_sorted();
  }

  for (const ScheduleSpec& spec : simt::fuzzing_schedules(2)) {
    RaceDetector det;
    KnnSetArray sets(wl.n, wl.k);
    {
      ScopedRaceDetection scope(det);
      run_inserts(pool, wl, spec,
                  [&](Warp& w, std::uint32_t dst, std::uint64_t cand) {
                    sets.insert_atomic(w, dst, cand);
                  });
    }
    const bool flagged = det.race_count() > 0;
    if (flagged) continue;  // "flagged" branch: acceptable by contract
    const KnnGraph g = sets.extract(pool);
    for (std::uint32_t dst = 0; dst < wl.n; ++dst) {
      auto row = g.row(dst);
      ASSERT_EQ(row.size(), expect[dst].size()) << "dst " << dst;
      for (std::size_t s = 0; s < row.size(); ++s) {
        EXPECT_EQ(row[s].id, expect[dst][s].id)
            << "dst " << dst << " slot " << s << " schedule "
            << simt::schedule_policy_name(spec.policy) << "/" << spec.seed;
        EXPECT_EQ(row[s].dist, expect[dst][s].dist);
      }
    }
    EXPECT_GT(det.atomic_events(), 0u);
  }
}

// Acceptance (c): with no detector installed the instrumented path must do
// no shadow work at all — the flag-off cost is one predicted branch.
TEST(RaceDetectorTest, InstrumentationInertWhenDisabled) {
  ASSERT_EQ(simt::active_race_detector(), nullptr);
  ThreadPool pool(2);
  const Workload wl;
  KnnSetArray sets(wl.n, wl.k);
  simt::StatsAccumulator acc;
  LaunchConfig config;
  simt::launch_warps(pool, wl.num_warps, config, &acc, [&](Warp& w) {
    for (std::size_t i = 0; i < wl.per_warp; ++i) {
      for (std::uint32_t dst = 0; dst < wl.n; ++dst) {
        sets.insert_basic(w, dst, candidate(w.id(), dst, i));
        sets.insert_atomic(w, dst, candidate(w.id(), dst, i));
      }
    }
  });
  // shadow_events counts detector-recorded accesses; it must stay zero.
  EXPECT_EQ(acc.total().shadow_events, 0u);
  EXPECT_GT(acc.total().lock_acquires, 0u);  // the kernels did run
}

TEST(RaceDetectorTest, ShadowEventsAttributedToWarpStatsWhenEnabled) {
  ThreadPool pool(2);
  const Workload wl;
  RaceDetector det;
  KnnSetArray sets(wl.n, wl.k);
  simt::StatsAccumulator acc;
  {
    ScopedRaceDetection scope(det);
    LaunchConfig config;
    config.schedule = {SchedulePolicy::kSequential, 0};
    simt::launch_warps(pool, wl.num_warps, config, &acc, [&](Warp& w) {
      sets.insert_basic(w, 0, candidate(w.id(), 0, 0));
    });
  }
  EXPECT_GT(acc.total().shadow_events, 0u);
  EXPECT_EQ(acc.total().shadow_events, det.plain_events() + det.atomic_events());
}

TEST(RaceDetectorTest, NestedDetectorsRejected) {
  RaceDetector a;
  RaceDetector b;
  ScopedRaceDetection scope(a);
  EXPECT_THROW({ ScopedRaceDetection inner(b); }, Error);
}

TEST(RaceDetectorTest, EpochSeparatesLaunches) {
  // The same cell written plainly (no lock) by two warps is a race within
  // one launch, but NOT across two launches — the launch is a barrier.
  ThreadPool pool(2);
  simt::DeviceBuffer<std::uint64_t> buf(4, 0);
  RaceDetector det;
  ScopedRaceDetection scope(det);
  LaunchConfig config;
  config.schedule = {SchedulePolicy::kSequential, 0};
  for (std::uint32_t launch = 0; launch < 2; ++launch) {
    simt::launch_warps(pool, 1, config, nullptr, [&](Warp&) {
      simt::plain_store(buf[0], std::uint64_t{7});
    });
  }
  EXPECT_EQ(det.race_count(), 0u);
  // Control: two warps, same launch, same cell, no lock -> flagged.
  simt::launch_warps(pool, 2, config, nullptr, [&](Warp&) {
    simt::plain_store(buf[1], std::uint64_t{9});
  });
  EXPECT_EQ(det.race_count(), 1u);
}

}  // namespace
}  // namespace wknng
