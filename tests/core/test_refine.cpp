#include "core/refine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <ostream>
#include <string>
#include <vector>

#include "core/graph_metrics.hpp"
#include "core/leaf_knn.hpp"
#include "core/rp_forest.hpp"
#include "common/rng.hpp"
#include "simt/launch.hpp"
#include "simt/packed.hpp"
#include "simt/visited.hpp"
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
                     /*max_retries=*/0, /*quarantined=*/{}, report,
                     simt::RowScorer(pts));
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
  refine_round(pool, pts, adj, params, sets, nullptr, simt::RowScorer(pts));
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
  refine_round(pool, pts, adj, params, sets, nullptr, simt::RowScorer(pts));
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
    refine_round(pool, pts, adj, params, sets, nullptr, simt::RowScorer(pts));
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
  refine_round(pool, pts, adj, params, sets, &acc, simt::RowScorer(pts));
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
  refine_round(pool, pts, adj, params, sets, nullptr, simt::RowScorer(pts));
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
  refine_round(pool, pts, adj, params, sets, nullptr, simt::RowScorer(pts));

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

// --- Candidate gather: differential against the sort-unique reference ----

/// The reference gather: every neighbor of p's forward and reverse
/// neighbors except p, sorted, deduplicated, minus p's forward neighbors,
/// truncated to the cap.
std::vector<std::uint32_t> reference_gather(const Adjacency& adj,
                                            std::uint32_t p, std::size_t cap) {
  std::vector<std::uint32_t> raw;
  const auto push_neighbors_of = [&](std::uint32_t q) {
    for (const std::uint32_t r : adj.forward(q)) {
      if (r != p) raw.push_back(r);
    }
  };
  for (const std::uint32_t q : adj.forward(p)) push_neighbors_of(q);
  for (const std::uint32_t q : adj.reverse(p)) push_neighbors_of(q);
  std::sort(raw.begin(), raw.end());
  raw.erase(std::unique(raw.begin(), raw.end()), raw.end());
  const auto fwd = adj.forward(p);
  std::vector<std::uint32_t> out;
  for (const std::uint32_t r : raw) {
    if (std::find(fwd.begin(), fwd.end(), r) == fwd.end()) out.push_back(r);
  }
  if (out.size() > cap) out.resize(cap);
  return out;
}

/// A random adjacency over n points whose ids are drawn from `pool_size`
/// distinct values in [lo, n): a small pool makes rows duplicate-heavy.
/// Forward rows take 0..k entries (about one in eight is empty) and may
/// repeat ids or name their own point; reverse rows take 0..rev_cap.
Adjacency random_adjacency(std::size_t n, std::size_t k, std::size_t rev_cap,
                           std::uint32_t lo, std::size_t pool_size,
                           std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint32_t> pool(pool_size);
  for (auto& id : pool) {
    id = lo + static_cast<std::uint32_t>(rng.next_below(n - lo));
  }
  const auto draw = [&] { return pool[rng.next_below(pool.size())]; };

  Adjacency adj;
  adj.n = n;
  adj.k = k;
  adj.fwd.assign(n * k, Adjacency::kInvalidId);
  adj.fwd_count.assign(n, 0);
  adj.rev_offsets.assign(n + 1, 0);
  for (std::size_t p = 0; p < n; ++p) {
    const std::size_t len = rng.next_below(8) == 0 ? 0 : 1 + rng.next_below(k);
    adj.fwd_count[p] = static_cast<std::uint32_t>(len);
    for (std::size_t s = 0; s < len; ++s) adj.fwd[p * k + s] = draw();
    const std::size_t rev_len = rng.next_below(rev_cap + 1);
    for (std::size_t s = 0; s < rev_len; ++s) adj.rev.push_back(draw());
    adj.rev_offsets[p + 1] = static_cast<std::uint32_t>(adj.rev.size());
  }
  return adj;
}

struct GatherCase {
  const char* name;
  std::size_t n;
  std::uint32_t lo;  ///< smallest id: ids in [lo, n) need its radix digits
  std::size_t pool_size;
  std::size_t cap;
};

void PrintTo(const GatherCase& c, std::ostream* os) { *os << c.name; }

class GatherCandidatesTest : public ::testing::TestWithParam<GatherCase> {};

TEST_P(GatherCandidatesTest, MatchesSortUniqueReferenceAndLeavesBitmapClear) {
  const GatherCase& c = GetParam();
  const std::size_t k = 8;
  const Adjacency adj = random_adjacency(c.n, k, /*rev_cap=*/6, c.lo,
                                         c.pool_size, 1000 + c.n + c.cap);
  simt::WarpScratch scratch(1 << 20);
  simt::Stats stats;
  simt::Warp w(0, scratch, stats);
  simt::VisitedBitmap& seen = simt::thread_visited(c.n);
  ASSERT_TRUE(seen.all_clear());

  std::size_t nonempty = 0;
  std::size_t capped = 0;
  for (std::uint32_t p = c.lo; p < c.n; p += 1 + (c.n - c.lo) / 400) {
    scratch.reset();
    const auto got = gather_candidates(w, adj, p, c.cap);
    const auto expect = reference_gather(adj, p, c.cap);
    ASSERT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()), expect)
        << c.name << " point " << p;
    ASSERT_TRUE(seen.all_clear()) << c.name << " point " << p;
    nonempty += got.empty() ? 0 : 1;
    capped += got.size() == c.cap ? 1 : 0;
  }
  EXPECT_GT(nonempty, 0u);
  if (c.cap <= 4) EXPECT_GT(capped, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    RandomAdjacency, GatherCandidatesTest,
    ::testing::Values(
        GatherCase{"one_digit", 200, 0, 150, 512},
        GatherCase{"one_digit_cap4", 200, 0, 150, 4},
        GatherCase{"duplicate_heavy", 200, 0, 6, 512},
        GatherCase{"duplicate_heavy_cap4", 200, 0, 6, 4},
        GatherCase{"two_digits", 5000, 256, 4000, 512},
        GatherCase{"two_digits_cap4", 5000, 256, 4000, 4},
        GatherCase{"three_digits", 66500, 65536, 900, 512},
        GatherCase{"three_digits_cap4", 66500, 65536, 900, 4}),
    [](const ::testing::TestParamInfo<GatherCase>& info) {
      return std::string(info.param.name);
    });

// Every worker's bitmap is clear after every point of a threaded launch,
// across launches, and after the sets grow to more points.
TEST(GatherCandidates, BitmapStaysClearAcrossLaunchesAndGrowth) {
  ThreadPool pool(3);
  const std::size_t k = 6;
  FloatMatrix pts = data::make_clusters(700, 8, 5, 0.1f, 23);
  KnnSetArray sets = seeded_sets(pool, pts, k, Strategy::kTiled);

  const auto check_launch = [&](const Adjacency& adj, std::size_t cap) {
    std::atomic<std::size_t> mismatches{0};
    simt::LaunchConfig config;
    config.scratch_bytes = 1 << 18;
    simt::launch_warps(pool, adj.n, config, nullptr, [&](simt::Warp& w) {
      const auto p = static_cast<std::uint32_t>(w.id());
      const auto got = gather_candidates(w, adj, p, cap);
      const auto expect = reference_gather(adj, p, cap);
      if (std::vector<std::uint32_t>(got.begin(), got.end()) != expect ||
          !simt::thread_visited(adj.n).all_clear()) {
        mismatches.fetch_add(1);
      }
    });
    return mismatches.load();
  };

  BuildParams params;
  params.k = k;
  params.strategy = Strategy::kTiled;
  params.schedule = {simt::SchedulePolicy::kSequential, 0};
  for (int round = 0; round < 2; ++round) {
    const Adjacency adj = snapshot_adjacency(pool, sets, 0);
    EXPECT_EQ(check_launch(adj, 4), 0u) << "round " << round;
    EXPECT_EQ(check_launch(adj, 512), 0u) << "round " << round;
    // On the calling thread.
    refine_round(pool, pts, adj, params, sets, nullptr, simt::RowScorer(pts));
    EXPECT_TRUE(simt::thread_visited(pts.rows()).all_clear());
  }

  // Grow to more points (new rows start empty), then refine again.
  const std::size_t grown = 1500;
  FloatMatrix more = data::make_clusters(grown, 8, 5, 0.1f, 23);
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    std::copy(pts.row(i).begin(), pts.row(i).end(), more.row(i).begin());
  }
  sets.grow(grown);
  const Adjacency adj = snapshot_adjacency(pool, sets, 0);
  EXPECT_EQ(check_launch(adj, 512), 0u);
  refine_round(pool, more, adj, params, sets, nullptr, simt::RowScorer(more));
  EXPECT_TRUE(simt::thread_visited(grown).all_clear());
}

TEST(RefineModeNames, AreStable) {
  EXPECT_STREQ(refine_mode_name(RefineMode::kExpand), "expand");
  EXPECT_STREQ(refine_mode_name(RefineMode::kLocalJoin), "local-join");
}

}  // namespace
}  // namespace wknng::core
