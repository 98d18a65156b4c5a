// Router + stitch quality tests: top-p fan-out with deterministic merge,
// batching-independence, quarantine exclusion, and the headline acceptance
// bound — a 16-shard merged+stitched graph holds recall within 2% of the
// monolithic build on the fig4-style workload (clustered, dim 32, k 10).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <set>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "data/synthetic.hpp"
#include "exact/brute_force.hpp"
#include "exact/recall.hpp"
#include "kernels/kernels.hpp"
#include "shard/manager.hpp"
#include "shard/router.hpp"
#include "support/temp_dir.hpp"

namespace wknng::shard {
namespace {

core::BuildParams base_build(std::size_t k) {
  core::BuildParams p;
  p.k = k;
  p.strategy = core::Strategy::kTiled;
  p.num_trees = 4;
  p.leaf_size = 48;
  p.refine_iters = 2;
  p.seed = 99;
  p.schedule.policy = simt::SchedulePolicy::kSequential;
  return p;
}

class ShardRouterTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = testing::unique_test_dir("wknng_router"); }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(ShardRouterTest, RoutedRowsAreSortedGlobalAndDeterministic) {
  ThreadPool pool;
  const FloatMatrix pts = data::make_clusters(600, 16, 8, 0.05f, 7);
  ShardBuildParams p;
  p.build = base_build(8);
  p.partition.shards = 4;
  p.workers = 2;
  p.artifact_prefix = (dir_ / "b").string();
  const ShardBuildResult build = build_sharded_knng(pool, pts, p);

  RouterParams rp;
  rp.top_p = 2;
  rp.search.k = 8;
  const ShardRouter router(pool, build, rp);
  EXPECT_EQ(router.routable().size(), 4u);

  const FloatMatrix queries = data::make_clusters(64, 16, 8, 0.05f, 11);
  RouteStats stats;
  const KnnGraph a = router.route_batch(queries, &stats);
  EXPECT_EQ(stats.queries, queries.rows());
  EXPECT_EQ(stats.probes, queries.rows() * 2);

  ASSERT_EQ(a.num_points(), queries.rows());
  for (std::size_t q = 0; q < a.num_points(); ++q) {
    const auto row = a.row(q);
    std::set<std::uint32_t> ids;
    for (std::size_t j = 0; j < a.row_size(q); ++j) {
      EXPECT_LT(row[j].id, pts.rows());
      EXPECT_TRUE(ids.insert(row[j].id).second) << "duplicate global id";
      if (j > 0) EXPECT_TRUE(row[j - 1] < row[j]);
    }
  }

  // Determinism: re-routing the batch reproduces every row bit for bit
  // (per-query tags make the descent schedule- and scratch-independent).
  const KnnGraph b = router.route_batch(queries);
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    const auto ra = a.row(q);
    const auto rb = b.row(q);
    EXPECT_EQ(std::memcmp(ra.data(), rb.data(), ra.size() * sizeof(Neighbor)),
              0);
  }
}

TEST_F(ShardRouterTest, TopShardsRanksByCentroidDistance) {
  ThreadPool pool;
  const FloatMatrix pts = data::make_clusters(400, 8, 4, 0.02f, 7);
  ShardBuildParams p;
  p.build = base_build(8);
  p.partition.shards = 4;
  p.workers = 2;
  p.artifact_prefix = (dir_ / "b").string();
  const ShardBuildResult build = build_sharded_knng(pool, pts, p);

  RouterParams rp;
  rp.top_p = 4;
  rp.search.k = 8;
  const ShardRouter router(pool, build, rp);
  // A query sitting on shard s's centroid must rank s first.
  for (std::size_t s = 0; s < build.partition.num_shards(); ++s) {
    const auto order = router.top_shards(build.partition.centroids.row(s));
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], s);
  }
}

TEST_F(ShardRouterTest, QuarantinedShardsAreNeverProbed) {
  ThreadPool pool;
  const FloatMatrix pts = data::make_clusters(400, 8, 4, 0.05f, 7);
  ShardBuildParams p;
  p.build = base_build(8);
  p.partition.shards = 4;
  p.workers = 2;
  p.artifact_prefix = (dir_ / "b").string();
  ShardBuildResult build = build_sharded_knng(pool, pts, p);
  build.shard_graphs[1] = KnnGraph();  // as if shard 1 had been quarantined

  RouterParams rp;
  rp.top_p = 4;
  rp.search.k = 8;
  const ShardRouter router(pool, build, rp);
  EXPECT_EQ(router.routable().size(), 3u);
  for (std::size_t s = 0; s < 4; ++s) {
    if (s == 1) continue;
    for (const std::uint32_t probed :
         router.top_shards(build.partition.centroids.row(s))) {
      EXPECT_NE(probed, 1u);
    }
  }
  // The routed ids never land in the quarantined shard.
  const KnnGraph routed = router.route_batch(pts);
  for (std::size_t q = 0; q < routed.num_points(); ++q) {
    const auto row = routed.row(q);
    for (std::size_t j = 0; j < routed.row_size(q); ++j) {
      EXPECT_NE(build.partition.assignment[row[j].id], 1u);
    }
  }

  // All shards quarantined: constructing a router is a typed error.
  for (auto& g : build.shard_graphs) g = KnnGraph();
  EXPECT_THROW(ShardRouter(pool, build, rp), Error);
}

TEST_F(ShardRouterTest, RouterRecallTracksTheMergedGraph) {
  ThreadPool pool;
  const std::size_t k = 10;
  const FloatMatrix pts = data::make_clusters(800, 16, 8, 0.05f, 7);
  ShardBuildParams p;
  p.build = base_build(k);
  p.partition.shards = 4;
  p.workers = 2;
  p.artifact_prefix = (dir_ / "b").string();
  const ShardBuildResult build = build_sharded_knng(pool, pts, p);

  // Route the base points themselves with self-exclusion ground truth.
  RouterParams rp;
  rp.top_p = 2;
  rp.search.k = k + 1;  // self lands in the candidates; drop it below
  const ShardRouter router(pool, build, rp);
  const KnnGraph routed = router.route_batch(pts);
  double hits = 0, total = 0;
  const KnnGraph truth = exact::brute_force_knng(pool, pts, k);
  for (std::size_t q = 0; q < pts.rows(); ++q) {
    std::set<std::uint32_t> got;
    const auto row = routed.row(q);
    for (std::size_t j = 0; j < routed.row_size(q); ++j) {
      if (row[j].id != q) got.insert(row[j].id);
    }
    const auto t = truth.row(q);
    for (std::size_t j = 0; j < truth.row_size(q); ++j) {
      total += 1.0;
      hits += got.count(t[j].id) ? 1.0 : 0.0;
    }
  }
  EXPECT_GT(hits / total, 0.85) << "routed recall collapsed";
}

// The acceptance bound of this PR: a 16-shard sharded build (merged +
// stitched) stays within 2% recall of the monolithic single-build graph on
// the fig4-style dataset.
TEST_F(ShardRouterTest, SixteenShardStitchedRecallWithinTwoPercent) {
  ThreadPool pool;
  const std::size_t k = 10;
  const FloatMatrix pts = data::make_clusters(2000, 32, 10, 0.05f, 7);

  core::BuildParams mono = base_build(k);
  const core::BuildResult single = core::build_knng(pool, pts, mono);

  ShardBuildParams p;
  p.build = base_build(k);
  p.partition.shards = 16;
  p.workers = 4;
  p.artifact_prefix = (dir_ / "b16").string();
  const ShardBuildResult sharded = build_sharded_knng(pool, pts, p);
  ASSERT_EQ(sharded.partition.num_shards(), 16u);
  ASSERT_EQ(sharded.report.quarantined_shards, 0u);

  const KnnGraph truth = exact::brute_force_knng(pool, pts, k);
  const double mono_recall = exact::recall(single.graph, truth);
  const double shard_recall = exact::recall(sharded.merged, truth);
  EXPECT_GE(shard_recall, mono_recall - 0.02)
      << "mono=" << mono_recall << " sharded=" << shard_recall
      << " boundary=" << sharded.report.boundary_points
      << " stitched=" << sharded.report.stitched_edges;
}

TEST_F(ShardRouterTest, StitchedEdgesCarryTrueDistances) {
  // Equal-sized shards (random partitioner, n divisible by the shard count)
  // share one search scratch during the stitch round: every merged edge's
  // distance must still be the distance between its endpoints, i.e. each
  // shard's descent scores against that shard's own rows and norms.
  ThreadPool pool;
  constexpr std::size_t kDim = 32;
  const FloatMatrix pts = data::make_clusters(2000, kDim, 8, 0.1f, 21);
  ShardBuildParams p;
  p.build = base_build(10);
  p.partition.shards = 4;
  p.partition.partitioner = Partitioner::kRandom;
  p.workers = 2;
  p.artifact_prefix = (dir_ / "s").string();
  const ShardBuildResult build = build_sharded_knng(pool, pts, p);
  ASSERT_GT(build.report.stitched_edges, 0u);

  std::size_t wrong = 0;
  for (std::size_t i = 0; i < build.merged.num_points(); ++i) {
    const auto x = pts.row(i);
    for (const Neighbor& nb : build.merged.row(i)) {
      if (nb.id == KnnGraph::kInvalid) break;
      const auto y = pts.row(nb.id);
      const float want = kernels::l2_serial(x, y);
      // SIMD backends build and search with the norm trick: equal up to
      // rounding on the scale of the two squared norms.
      const float tol = kernels::strict_mode()
                            ? 0.0f
                            : 1e-5f * (kernels::ops().norm_sq(x.data(), kDim) +
                                       kernels::ops().norm_sq(y.data(), kDim));
      if (std::abs(nb.dist - want) > tol) ++wrong;
    }
  }
  EXPECT_EQ(wrong, 0u);
}

}  // namespace
}  // namespace wknng::shard
