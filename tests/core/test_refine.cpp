#include "core/refine.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/graph_metrics.hpp"
#include "core/leaf_knn.hpp"
#include "core/rp_forest.hpp"
#include "simt/packed.hpp"
#include "data/synthetic.hpp"
#include "exact/brute_force.hpp"
#include "exact/recall.hpp"

namespace wknng::core {
namespace {

KnnSetArray seeded_sets(ThreadPool& pool, const FloatMatrix& pts,
                        std::size_t k, Strategy strategy) {
  KnnSetArray sets(pts.rows(), k);
  const Buckets forest = build_rp_forest(pool, pts, 2, 24, 3);
  LeafReport report;
  leaf_knn_resilient(pool, pts, forest, strategy, sets, nullptr, 48 * 1024, {},
                     /*max_retries=*/0, /*quarantined=*/{}, report);
  return sets;
}

TEST(Adjacency, ForwardMatchesSnapshotIds) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(150, 8, 5, 0.1f, 7);
  KnnSetArray sets = seeded_sets(pool, pts, 5, Strategy::kBasic);
  const Adjacency adj = snapshot_adjacency(pool, sets, 0);
  ASSERT_EQ(adj.n, 150u);
  for (std::uint32_t p = 0; p < 150; ++p) {
    std::vector<std::uint32_t> expect(5);
    const std::size_t cnt = sets.snapshot_ids(p, expect.data());
    const auto fwd = adj.forward(p);
    ASSERT_EQ(fwd.size(), cnt);
    for (std::size_t i = 0; i < cnt; ++i) EXPECT_EQ(fwd[i], expect[i]);
  }
}

TEST(Adjacency, ReverseIsTransposeOfForward) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(120, 6, 4, 0.1f, 9);
  KnnSetArray sets = seeded_sets(pool, pts, 4, Strategy::kBasic);
  const Adjacency adj = snapshot_adjacency(pool, sets, /*reverse_cap=*/1000);
  // Uncapped: (p -> q) forward iff (q -> p) reverse.
  std::size_t fwd_edges = 0, rev_edges = 0;
  for (std::uint32_t p = 0; p < 120; ++p) {
    fwd_edges += adj.forward(p).size();
    rev_edges += adj.reverse(p).size();
    for (std::uint32_t q : adj.forward(p)) {
      const auto rev = adj.reverse(q);
      EXPECT_NE(std::find(rev.begin(), rev.end(), p), rev.end())
          << p << " -> " << q;
    }
  }
  EXPECT_EQ(fwd_edges, rev_edges);
}

TEST(Adjacency, ReverseCapIsRespected) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(200, 6, 2, 0.05f, 11);
  KnnSetArray sets = seeded_sets(pool, pts, 6, Strategy::kBasic);
  const std::size_t cap = 3;
  const Adjacency adj = snapshot_adjacency(pool, sets, cap);
  for (std::uint32_t p = 0; p < 200; ++p) {
    EXPECT_LE(adj.reverse(p).size(), cap);
  }
}

class RefineTest : public ::testing::TestWithParam<Strategy> {};

TEST_P(RefineTest, ImprovesRecall) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(400, 16, 8, 0.15f, 13);
  const std::size_t k = 8;

  BuildParams params;
  params.k = k;
  params.strategy = GetParam();
  params.refine_sample = 256;

  KnnSetArray sets = seeded_sets(pool, pts, k, params.strategy);
  const KnnGraph truth = exact::brute_force_knng(pool, pts, k);
  const double recall_before = exact::recall(sets.extract(pool), truth);

  const Adjacency adj = snapshot_adjacency(pool, sets, params.reverse_cap);
  refine_round(pool, pts, adj, params, sets, nullptr);
  const double recall_after = exact::recall(sets.extract(pool), truth);

  EXPECT_GT(recall_after, recall_before);
}

TEST_P(RefineTest, NeverDegradesRowQuality) {
  // Refinement only inserts better candidates, so every row's worst distance
  // must be monotonically non-increasing.
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_uniform(200, 10, 15);
  const std::size_t k = 5;
  BuildParams params;
  params.k = k;
  params.strategy = GetParam();

  KnnSetArray sets = seeded_sets(pool, pts, k, params.strategy);
  const KnnGraph before = sets.extract(pool);
  const Adjacency adj = snapshot_adjacency(pool, sets, 0);
  refine_round(pool, pts, adj, params, sets, nullptr);
  const KnnGraph after = sets.extract(pool);

  for (std::size_t p = 0; p < pts.rows(); ++p) {
    const std::size_t nb = before.row_size(p);
    const std::size_t na = after.row_size(p);
    EXPECT_GE(na, nb) << "point " << p;
    for (std::size_t s = 0; s < nb; ++s) {
      EXPECT_LE(after.row(p)[s].dist, before.row(p)[s].dist)
          << "point " << p << " slot " << s;
    }
  }
}

TEST_P(RefineTest, GraphStaysValidAfterRounds) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(300, 12, 6, 0.1f, 17);
  BuildParams params;
  params.k = 6;
  params.strategy = GetParam();
  KnnSetArray sets = seeded_sets(pool, pts, params.k, params.strategy);
  for (int round = 0; round < 3; ++round) {
    const Adjacency adj = snapshot_adjacency(pool, sets, 0);
    refine_round(pool, pts, adj, params, sets, nullptr);
    EXPECT_TRUE(sets.extract(pool).check_invariants()) << "round " << round;
  }
}

TEST_P(RefineTest, SampleCapBoundsWork) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_uniform(150, 8, 19);
  BuildParams params;
  params.k = 5;
  params.strategy = GetParam();
  params.refine_sample = 4;  // extremely tight cap
  KnnSetArray sets = seeded_sets(pool, pts, params.k, params.strategy);
  const Adjacency adj = snapshot_adjacency(pool, sets, 0);
  simt::StatsAccumulator acc;
  refine_round(pool, pts, adj, params, sets, &acc);
  // At most 4 candidates per point were scored.
  EXPECT_LE(acc.total().distance_evals, pts.rows() * 4u);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, RefineTest,
                         ::testing::Values(Strategy::kBasic, Strategy::kAtomic,
                                           Strategy::kTiled),
                         [](const auto& info) {
                           return strategy_name(info.param);
                         });


class LocalJoinTest : public ::testing::TestWithParam<Strategy> {};

TEST_P(LocalJoinTest, ImprovesRecallLikeExpand) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(400, 16, 8, 0.15f, 29);
  const std::size_t k = 8;
  const KnnGraph truth = exact::brute_force_knng(pool, pts, k);

  BuildParams params;
  params.k = k;
  params.strategy = GetParam();
  params.refine_mode = RefineMode::kLocalJoin;

  KnnSetArray sets = seeded_sets(pool, pts, k, params.strategy);
  const double before = exact::recall(sets.extract(pool), truth);
  const Adjacency adj = snapshot_adjacency(pool, sets, 0);
  refine_round(pool, pts, adj, params, sets, nullptr);
  const double after = exact::recall(sets.extract(pool), truth);
  EXPECT_GT(after, before);
  EXPECT_TRUE(sets.extract(pool).check_invariants());
}

TEST_P(LocalJoinTest, SubmitsJoinedPairsToBothEndpoints) {
  // Deterministic micro-scenario: p knows u and v, but u and v do not know
  // each other. A local-join round at p must evaluate (u, v) and — with
  // spare k capacity on both sides — insert the edge in both directions.
  // (The expand mode cannot do this: it only updates p's own set.)
  ThreadPool pool(1);
  FloatMatrix pts(3, 2);
  // p = (0,0), u = (1,0), v = (0,1)
  pts(1, 0) = 1.0f;
  pts(2, 1) = 1.0f;
  const std::uint32_t p = 0, u = 1, v = 2;

  KnnSetArray sets(3, 3);
  {
    simt::WarpScratch scratch;
    simt::Stats stats;
    simt::Warp w(0, scratch, stats);
    sets.insert(w, GetParam(), p, simt::Packed::make(1.0f, u));
    sets.insert(w, GetParam(), p, simt::Packed::make(1.0f, v));
    sets.insert(w, GetParam(), u, simt::Packed::make(1.0f, p));
    sets.insert(w, GetParam(), v, simt::Packed::make(1.0f, p));
  }

  BuildParams params;
  params.k = 3;
  params.strategy = GetParam();
  params.refine_mode = RefineMode::kLocalJoin;
  const Adjacency adj = snapshot_adjacency(pool, sets, 0);
  refine_round(pool, pts, adj, params, sets, nullptr);

  const KnnGraph g = sets.extract(pool);
  auto contains = [&](std::uint32_t from, std::uint32_t to) {
    for (const Neighbor& nb : g.row(from)) {
      if (nb.id == to) return true;
    }
    return false;
  };
  EXPECT_TRUE(contains(u, v));
  EXPECT_TRUE(contains(v, u));
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, LocalJoinTest,
                         ::testing::Values(Strategy::kBasic, Strategy::kAtomic,
                                           Strategy::kTiled),
                         [](const auto& info) {
                           return strategy_name(info.param);
                         });

TEST(RefineModeNames, AreStable) {
  EXPECT_STREQ(refine_mode_name(RefineMode::kExpand), "expand");
  EXPECT_STREQ(refine_mode_name(RefineMode::kLocalJoin), "local-join");
}

}  // namespace
}  // namespace wknng::core
