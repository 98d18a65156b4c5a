#include "core/leaf_knn.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "common/topk.hpp"
#include "data/synthetic.hpp"
#include "exact/brute_force.hpp"
#include "exact/recall.hpp"
#include "simt/launch.hpp"

namespace wknng::core {
namespace {

/// Reference: exact KNN restricted to bucket-mates (what a perfect leaf pass
/// must produce).
KnnGraph reference_bucket_knn(const FloatMatrix& pts, const Buckets& buckets,
                              std::size_t k) {
  std::vector<TopK> heaps;
  heaps.reserve(pts.rows());
  for (std::size_t i = 0; i < pts.rows(); ++i) heaps.emplace_back(k);
  for (std::size_t b = 0; b < buckets.num_buckets(); ++b) {
    const auto ids = buckets.bucket(b);
    for (std::size_t x = 0; x < ids.size(); ++x) {
      for (std::size_t y = x + 1; y < ids.size(); ++y) {
        const float d = exact::l2_sq(pts.row(ids[x]), pts.row(ids[y]));
        heaps[ids[x]].push(d, ids[y]);
        heaps[ids[y]].push(d, ids[x]);
      }
    }
  }
  KnnGraph g(pts.rows(), k);
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    const auto sorted = heaps[i].take_sorted();
    std::copy(sorted.begin(), sorted.end(), g.row(i).begin());
  }
  return g;
}

/// One leaf pass with no retries and no quarantine: every bucket runs once.
LeafReport leaf_pass(ThreadPool& pool, const FloatMatrix& pts,
                     const Buckets& buckets, Strategy strategy,
                     KnnSetArray& sets, simt::StatsAccumulator* acc = nullptr) {
  LeafReport report;
  leaf_knn_resilient(pool, pts, buckets, strategy, sets, acc, 48 * 1024, {},
                     /*max_retries=*/0, /*quarantined=*/{}, report,
                     simt::RowScorer(pts));
  return report;
}

class LeafKnnTest : public ::testing::TestWithParam<Strategy> {};

TEST_P(LeafKnnTest, MatchesReferenceWithinBuckets) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(300, 12, 6, 0.1f, 13);
  const std::size_t k = 6;
  const Buckets forest = build_rp_forest(pool, pts, 3, 40, 5);
  KnnSetArray sets(pts.rows(), k);
  leaf_pass(pool, pts, forest, GetParam(), sets);
  const KnnGraph got = sets.extract(pool);
  ASSERT_TRUE(got.check_invariants());

  const KnnGraph expect = reference_bucket_knn(pts, forest, k);
  // Distances accumulate in different orders per strategy, so compare by id
  // sets with a float-tolerant check on distances.
  std::size_t mismatched_ids = 0;
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    auto g = got.row(i);
    auto e = expect.row(i);
    for (std::size_t s = 0; s < k; ++s) {
      if (e[s].id == KnnGraph::kInvalid) {
        EXPECT_EQ(g[s].id, KnnGraph::kInvalid) << "point " << i << " slot " << s;
        continue;
      }
      const bool found = std::any_of(g.begin(), g.end(), [&](const Neighbor& nb) {
        return nb.id == e[s].id;
      });
      mismatched_ids += found ? 0 : 1;
    }
  }
  // Float-rounding near ties can swap the k-th entry occasionally; demand
  // a >= 99.9% id match instead of bit equality.
  EXPECT_LE(mismatched_ids, pts.rows() * k / 1000 + 1);
}

TEST_P(LeafKnnTest, DistancesAreCorrectForReportedIds) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_uniform(200, 20, 29);
  const std::size_t k = 5;
  const Buckets forest = build_rp_forest(pool, pts, 2, 32, 7);
  KnnSetArray sets(pts.rows(), k);
  leaf_pass(pool, pts, forest, GetParam(), sets);
  const KnnGraph g = sets.extract(pool);
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    for (const Neighbor& nb : g.row(i)) {
      if (nb.id == KnnGraph::kInvalid) break;
      const float expect = exact::l2_sq(pts.row(i), pts.row(nb.id));
      EXPECT_NEAR(nb.dist, expect, 1e-3f * (expect + 1.0f))
          << "point " << i << " neighbor " << nb.id;
    }
  }
}

TEST_P(LeafKnnTest, SingletonAndTinyBucketsAreHandled) {
  ThreadPool pool(1);
  const FloatMatrix pts = data::make_uniform(10, 4, 3);
  Buckets buckets;
  buckets.ids = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  buckets.offsets = {0, 1, 3, 10};  // sizes 1, 2, 7
  KnnSetArray sets(pts.rows(), 3);
  EXPECT_NO_THROW(leaf_pass(pool, pts, buckets, GetParam(), sets));
  const KnnGraph g = sets.extract(pool);
  EXPECT_TRUE(g.check_invariants());
  EXPECT_EQ(g.row_size(0), 0u);  // singleton bucket: no pairs
  EXPECT_EQ(g.row_size(1), 1u);
  EXPECT_EQ(g.row(1)[0].id, 2u);
}

TEST_P(LeafKnnTest, StatsCountDistanceEvaluations) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_uniform(128, 8, 17);
  Buckets buckets;  // one bucket with all points: n(n-1)/2 pairs
  for (std::uint32_t i = 0; i < 128; ++i) buckets.ids.push_back(i);
  buckets.offsets = {0, 128};
  KnnSetArray sets(pts.rows(), 4);
  simt::StatsAccumulator acc;
  leaf_pass(pool, pts, buckets, GetParam(), sets, &acc);
  EXPECT_EQ(acc.total().distance_evals, 128u * 127u / 2);
}

TEST_P(LeafKnnTest, HighDimensionalBucketWorks) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(96, 384, 3, 0.1f, 31);
  Buckets buckets;
  for (std::uint32_t i = 0; i < 96; ++i) buckets.ids.push_back(i);
  buckets.offsets = {0, 96};
  KnnSetArray sets(pts.rows(), 4);
  leaf_pass(pool, pts, buckets, GetParam(), sets);
  const KnnGraph g = sets.extract(pool);
  EXPECT_TRUE(g.check_invariants());
  for (std::size_t i = 0; i < 96; ++i) EXPECT_EQ(g.row_size(i), 4u);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, LeafKnnTest,
                         ::testing::Values(Strategy::kBasic, Strategy::kAtomic,
                                           Strategy::kTiled, Strategy::kShared),
                         [](const auto& info) {
                           return strategy_name(info.param);
                         });

TEST(LeafKnnStrategies, AllThreeAgreeOnNeighborSets) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(250, 24, 5, 0.08f, 37);
  const std::size_t k = 8;
  const Buckets forest = build_rp_forest(pool, pts, 4, 48, 11);

  std::array<KnnGraph, 3> graphs;
  const std::array<Strategy, 3> strategies = {
      Strategy::kBasic, Strategy::kAtomic, Strategy::kTiled};
  for (std::size_t s = 0; s < 3; ++s) {
    KnnSetArray sets(pts.rows(), k);
    leaf_pass(pool, pts, forest, strategies[s], sets);
    graphs[s] = sets.extract(pool);
  }
  // The three strategies process identical candidate streams, so their id
  // sets must agree except for float-rounding swaps near the k-th distance.
  std::size_t disagreements = 0;
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    for (std::size_t s = 0; s < k; ++s) {
      const std::uint32_t id0 = graphs[0].row(i)[s].id;
      const auto contains = [&](const KnnGraph& g) {
        auto row = g.row(i);
        return std::any_of(row.begin(), row.end(),
                           [&](const Neighbor& nb) { return nb.id == id0; });
      };
      if (!contains(graphs[1]) || !contains(graphs[2])) ++disagreements;
    }
  }
  EXPECT_LE(disagreements, pts.rows() * k / 500 + 2);
}

TEST(SharedStrategy, ThrowsWhenBucketExceedsScratch) {
  // leaf_size * k * 8 bytes beyond the scratch budget must fail loudly —
  // this is the shared-memory limitation the paper's strategies remove.
  ThreadPool pool(1);
  const FloatMatrix pts = data::make_uniform(600, 8, 3);
  Buckets buckets;
  for (std::uint32_t i = 0; i < 600; ++i) buckets.ids.push_back(i);
  buckets.offsets = {0, 600};
  KnnSetArray sets(pts.rows(), 32);  // 600 * 32 * 8 = 150 KiB > 48 KiB
  simt::LaunchConfig config;
  config.scratch_bytes = 48 * 1024;
  EXPECT_THROW(simt::launch_warps(pool, 1, config, nullptr,
                                  [&](simt::Warp& w) {
                                    process_bucket(w, pts, buckets.bucket(0),
                                                   Strategy::kShared, sets,
                                                   simt::RowScorer(pts));
                                  }),
               Error);
  // The leaf pass catches the overflow and, with no retry left to degrade
  // the bucket to kTiled, reports it failed.
  const LeafReport report =
      leaf_pass(pool, pts, buckets, Strategy::kShared, sets);
  EXPECT_EQ(report.buckets_failed, 1u);
  EXPECT_EQ(report.buckets_degraded, 0u);
}

TEST(SharedStrategy, UsesNoGlobalSetTrafficDuringPass) {
  // The shared kernel's only global writes are the bucket-end merges: its
  // global k-set read traffic must be far below the basic strategy's
  // per-candidate scans.
  ThreadPool pool(1);
  const FloatMatrix pts = data::make_uniform(256, 8, 5);
  Buckets buckets;
  for (std::uint32_t i = 0; i < 256; ++i) buckets.ids.push_back(i);
  buckets.offsets = {0, 256};

  auto traffic = [&](Strategy s) {
    KnnSetArray sets(pts.rows(), 8);
    simt::StatsAccumulator acc;
    leaf_pass(pool, pts, buckets, s, sets, &acc);
    return acc.total().global_reads;
  };
  // Both kernels read the same pair coordinates (2 rows per pair); subtract
  // that floor so only the k-set maintenance traffic is compared.
  const std::uint64_t pairs = 256ULL * 255 / 2;
  const std::uint64_t coord_floor = pairs * 2 * pts.cols() * sizeof(float);
  const std::uint64_t shared_sets = traffic(Strategy::kShared) - coord_floor;
  const std::uint64_t basic_sets = traffic(Strategy::kBasic) - coord_floor;
  EXPECT_LT(shared_sets, basic_sets / 10);
}

TEST(SharedStrategy, MatchesOtherStrategiesExactly) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(200, 12, 4, 0.1f, 7);
  const Buckets forest = build_rp_forest(pool, pts, 3, 48, 9);
  KnnSetArray shared_sets(pts.rows(), 6);
  KnnSetArray basic_sets(pts.rows(), 6);
  leaf_pass(pool, pts, forest, Strategy::kShared, shared_sets);
  leaf_pass(pool, pts, forest, Strategy::kBasic, basic_sets);
  const KnnGraph a = shared_sets.extract(pool);
  const KnnGraph b = basic_sets.extract(pool);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < a.num_points(); ++i) {
    for (std::size_t s = 0; s < a.k(); ++s) {
      mismatches += (a.row(i)[s].id != b.row(i)[s].id) ? 1 : 0;
    }
  }
  // Identical candidate streams; only float-rounding near ties may differ.
  EXPECT_LE(mismatches, 3u);
}

}  // namespace
}  // namespace wknng::core
