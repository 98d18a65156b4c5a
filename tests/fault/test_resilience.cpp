// End-to-end recovery tests: a build under an injected fault campaign must
// either complete with a valid graph and an honest health report, or throw a
// typed wknng::Error — never crash, hang, or return a silently wrong-size
// graph. Every outcome must reproduce exactly from (site, seed).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/builder.hpp"
#include "data/synthetic.hpp"
#include "simt/fault.hpp"

namespace wknng::core {
namespace {

/// Deterministic base configuration: the sequential schedule makes every
/// build bit-reproducible, so recovered runs can be compared word for word
/// against clean ones.
BuildParams base_params() {
  BuildParams p;
  p.k = 8;
  p.strategy = Strategy::kTiled;
  p.num_trees = 4;
  p.leaf_size = 48;
  p.refine_iters = 1;
  p.seed = 99;
  p.schedule.policy = simt::SchedulePolicy::kSequential;
  return p;
}

bool graphs_equal(const KnnGraph& a, const KnnGraph& b) {
  if (a.num_points() != b.num_points() || a.k() != b.k()) return false;
  for (std::size_t i = 0; i < a.num_points(); ++i) {
    const auto ra = a.row(i);
    const auto rb = b.row(i);
    for (std::size_t j = 0; j < a.k(); ++j) {
      if (ra[j].id != rb[j].id) return false;
      if (std::memcmp(&ra[j].dist, &rb[j].dist, sizeof(float)) != 0) {
        return false;
      }
    }
  }
  return true;
}

/// One sweep cell: runs the build; reports (completed, graph, injected). A
/// typed Error is a legal outcome — anything else escapes and fails the test.
struct SweepOutcome {
  bool completed = false;
  std::string error;
  std::optional<BuildResult> result;
};

SweepOutcome run_campaign(ThreadPool& pool, const FloatMatrix& points,
                          const BuildParams& params) {
  SweepOutcome out;
  try {
    out.result = build_knng(pool, points, params);
    out.completed = true;
  } catch (const Error& e) {
    out.error = e.what();
  }
  return out;
}

TEST(Resilience, FaultSweepNeverCrashesAndReproduces) {
  ThreadPool pool;
  const FloatMatrix points = data::make_clusters(400, 16, 8, 0.05f, 7);

  for (const simt::FaultSite site : simt::all_fault_sites()) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      BuildParams params = base_params();
      params.faults.enabled = true;
      params.faults.site = site;
      params.faults.seed = seed;
      params.faults.probability = 0.02;

      const SweepOutcome first = run_campaign(pool, points, params);
      const SweepOutcome second = run_campaign(pool, points, params);
      const std::string cell = std::string(simt::fault_site_name(site)) +
                               ":" + std::to_string(seed);

      EXPECT_EQ(first.completed, second.completed) << cell;
      if (first.completed && second.completed) {
        const BuildResult& r = *first.result;
        EXPECT_EQ(r.graph.num_points(), points.rows()) << cell;
        EXPECT_EQ(r.graph.k(), params.k) << cell;
        EXPECT_TRUE(r.graph.check_invariants()) << cell;
        EXPECT_TRUE(graphs_equal(r.graph, second.result->graph)) << cell;
        EXPECT_EQ(r.health.faults_injected,
                  second.result->health.faults_injected)
            << cell;
      } else if (!first.completed && !second.completed) {
        EXPECT_EQ(first.error, second.error) << cell;
      }
    }
  }
}

TEST(Resilience, RecoveredBuildIsBitIdenticalToCleanOne) {
  // probability 1 + max_faults 2: exactly the first two opportunities abort
  // their warps; the failed buckets are retried and the retry succeeds
  // (budget exhausted). Insert idempotence makes the recovered result the
  // clean one, word for word.
  ThreadPool pool;
  const FloatMatrix points = data::make_clusters(400, 16, 8, 0.05f, 7);

  const BuildResult clean = build_knng(pool, points, base_params());

  BuildParams params = base_params();
  params.faults = simt::fault_spec_from_string("warp-abort:1:1:2");
  const BuildResult recovered = build_knng(pool, points, params);

  EXPECT_EQ(recovered.health.faults_injected, 2u);
  EXPECT_GE(recovered.health.buckets_retried, 1u);
  EXPECT_EQ(recovered.health.buckets_failed, 0u);
  // Successful retries are not degradation: the output is the ideal one.
  EXPECT_FALSE(recovered.health.degraded);
  EXPECT_TRUE(graphs_equal(clean.graph, recovered.graph));
}

TEST(Resilience, SharedOverflowFallsBackToTiled) {
  // One bucket per tree of 500 points: kShared would need 500 * k * 8 bytes
  // of scratch (~65 KB), over the 48 KB budget — the preflight must degrade
  // the pass to kTiled instead of throwing, and the result must equal a
  // direct kTiled build exactly.
  ThreadPool pool;
  const FloatMatrix points = data::make_clusters(500, 16, 8, 0.05f, 11);

  BuildParams params = base_params();
  params.k = 16;
  params.num_trees = 2;
  params.leaf_size = 512;
  params.refine_iters = 0;

  BuildParams shared = params;
  shared.strategy = Strategy::kShared;
  const BuildResult degraded = build_knng(pool, points, shared);

  EXPECT_TRUE(degraded.health.degraded);
  EXPECT_NE(degraded.health.fallback_reason.find("fell back to tiled"),
            std::string::npos)
      << degraded.health.fallback_reason;

  BuildParams tiled = params;
  tiled.strategy = Strategy::kTiled;
  const BuildResult direct = build_knng(pool, points, tiled);
  EXPECT_TRUE(graphs_equal(degraded.graph, direct.graph));
}

TEST(Resilience, NonFiniteRowsAreQuarantined) {
  ThreadPool pool;
  FloatMatrix points = data::make_uniform(200, 8, 3);
  points(5, 2) = std::numeric_limits<float>::quiet_NaN();
  points(17, 0) = std::numeric_limits<float>::infinity();

  BuildParams params = base_params();
  params.k = 6;
  const BuildResult r = build_knng(pool, points, params);

  EXPECT_TRUE(r.health.degraded);
  EXPECT_EQ(r.health.points_quarantined, 2u);
  ASSERT_EQ(r.quarantined_ids.size(), 2u);
  EXPECT_EQ(r.quarantined_ids[0], 5u);
  EXPECT_EQ(r.quarantined_ids[1], 17u);
  EXPECT_TRUE(r.graph.check_invariants());

  // Quarantined rows carry unambiguous placeholders: +inf distances to the
  // lowest-id healthy points.
  for (const std::uint32_t q : r.quarantined_ids) {
    const auto row = r.graph.row(q);
    ASSERT_EQ(r.graph.row_size(q), params.k);
    for (const Neighbor& nb : row) {
      EXPECT_TRUE(std::isinf(nb.dist)) << "row " << q;
    }
  }
  // ... and no healthy row points at a quarantined one.
  for (std::size_t i = 0; i < r.graph.num_points(); ++i) {
    if (i == 5 || i == 17) continue;
    for (const Neighbor& nb : r.graph.row(i)) {
      if (nb.id == KnnGraph::kInvalid) break;
      EXPECT_NE(nb.id, 5u) << "row " << i;
      EXPECT_NE(nb.id, 17u) << "row " << i;
    }
  }
}

TEST(Resilience, AllNonFiniteInputThrowsTypedError) {
  ThreadPool pool;
  FloatMatrix points = data::make_uniform(50, 4, 3);
  for (std::size_t i = 0; i < points.rows(); ++i) {
    points(i, 0) = std::numeric_limits<float>::quiet_NaN();
  }
  EXPECT_THROW(build_knng(pool, points, base_params()), Error);
}

TEST(Resilience, DeadlineShedsRefinementRounds) {
  ThreadPool pool;
  const FloatMatrix points = data::make_clusters(400, 16, 8, 0.05f, 7);

  BuildParams params = base_params();
  params.refine_iters = 5;
  params.deadline_seconds = 1e-9;  // already exceeded when refinement starts
  const BuildResult r = build_knng(pool, points, params);

  EXPECT_TRUE(r.health.deadline_hit);
  EXPECT_TRUE(r.health.degraded);
  EXPECT_EQ(r.health.rounds_completed, 0u);
  // The leaf pass always completes: the partial graph is still a full,
  // valid n x k graph.
  EXPECT_EQ(r.graph.num_points(), points.rows());
  EXPECT_TRUE(r.graph.check_invariants());
}

TEST(Resilience, CorruptedDistancesAreDroppedNotAdmitted) {
  ThreadPool pool;
  const FloatMatrix points = data::make_clusters(300, 16, 8, 0.05f, 7);

  BuildParams params = base_params();
  params.faults = simt::fault_spec_from_string("corrupt-distance:9:0.05");
  const BuildResult r = build_knng(pool, points, params);

  EXPECT_GT(r.health.faults_injected, 0u);
  EXPECT_GT(r.stats.nonfinite_dropped, 0u);
  EXPECT_TRUE(r.graph.check_invariants());
  for (std::size_t i = 0; i < r.graph.num_points(); ++i) {
    for (const Neighbor& nb : r.graph.row(i)) {
      if (nb.id == KnnGraph::kInvalid) break;
      EXPECT_TRUE(std::isfinite(nb.dist)) << "row " << i;
    }
  }
}

TEST(Builder, ValidationRejectsBadParamsWithTypedErrors) {
  ThreadPool pool;
  const FloatMatrix points = data::make_uniform(64, 8, 1);

  const auto expect_rejected = [&](auto mutate) {
    BuildParams p = base_params();
    mutate(p);
    EXPECT_THROW(KnngBuilder(pool, p), Error);
  };
  expect_rejected([](BuildParams& p) { p.k = 0; });
  expect_rejected([](BuildParams& p) { p.num_trees = 0; });
  expect_rejected([](BuildParams& p) { p.leaf_size = 0; });
  expect_rejected([](BuildParams& p) { p.leaf_size = 1; });
  expect_rejected([](BuildParams& p) {
    p.refine_iters = 1;
    p.refine_sample = 0;
  });
  expect_rejected([](BuildParams& p) { p.deadline_seconds = -1.0; });

  // k >= n is a property of (params, data): rejected at build time.
  BuildParams p = base_params();
  p.k = 64;
  EXPECT_THROW(KnngBuilder(pool, p).build(points), Error);
  p.k = 100;
  EXPECT_THROW(KnngBuilder(pool, p).build(points), Error);
}

TEST(Builder, UnknownStrategyNameListsValidOnes) {
  try {
    strategy_from_name("quantum");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::strstr(e.what(), "quantum"), nullptr);
    EXPECT_NE(std::strstr(e.what(), "basic"), nullptr);
    EXPECT_NE(std::strstr(e.what(), "shared"), nullptr);
  }
}

}  // namespace
}  // namespace wknng::core
