#include "dynamic/dynamic_knng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <limits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/builder.hpp"
#include "core/graph_metrics.hpp"
#include "core/graph_search.hpp"
#include "data/graph_io.hpp"
#include "data/synthetic.hpp"
#include "data/wal.hpp"
#include "exact/brute_force.hpp"
#include "exact/recall.hpp"
#include "simt/launch.hpp"
#include "simt/visited.hpp"
#include "support/temp_dir.hpp"

namespace wknng::dynamic {
namespace {

namespace fs = std::filesystem;

core::BuildParams small_params() {
  core::BuildParams bp;
  bp.k = 6;
  bp.num_trees = 4;
  bp.refine_iters = 1;
  return bp;
}

/// Manual-maintenance knobs: every mutation is exactly one version bump, so
/// tests can reason about version arithmetic without threshold heuristics.
DynamicParams manual() {
  DynamicParams dp;
  dp.auto_maintain = false;
  return dp;
}

FloatMatrix base_300() { return data::make_clusters(300, 8, 6, 0.1f, 31); }

/// A batch whose rows sit near existing base rows (realistic inserts).
FloatMatrix batch_near(const FloatMatrix& base, std::size_t count,
                       std::uint64_t seed) {
  FloatMatrix out(count, base.cols());
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    const auto src = base.row(rng.next_below(base.rows()));
    auto dst = out.row(i);
    for (std::size_t d = 0; d < base.cols(); ++d) {
      dst[d] = src[d] + 0.02f * rng.next_gaussian();
    }
  }
  return out;
}

/// Row-for-row equality of two graphs: same ids and bit-equal distances.
void expect_same_graph(const KnnGraph& a, const KnnGraph& b) {
  ASSERT_EQ(a.num_points(), b.num_points());
  for (std::size_t p = 0; p < a.num_points(); ++p) {
    ASSERT_EQ(a.row_size(p), b.row_size(p)) << "row " << p;
    const auto ra = a.row(p);
    const auto rb = b.row(p);
    for (std::size_t j = 0; j < a.row_size(p); ++j) {
      ASSERT_EQ(ra[j].id, rb[j].id) << "row " << p << " slot " << j;
      ASSERT_EQ(ra[j].dist, rb[j].dist) << "row " << p << " slot " << j;
    }
  }
}

/// Word-for-word equality of two published snapshots: version, every base
/// byte, every graph row (valid prefix), the external-id map, and tombstones.
void expect_identical(const serve::GraphSnapshot& a,
                      const serve::GraphSnapshot& b) {
  EXPECT_EQ(a.version, b.version);
  ASSERT_EQ(a.base.rows(), b.base.rows());
  ASSERT_EQ(a.base.cols(), b.base.cols());
  for (std::size_t i = 0; i < a.base.rows(); ++i) {
    const auto ra = a.base.row(i);
    const auto rb = b.base.row(i);
    ASSERT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin())) << "row " << i;
  }
  expect_same_graph(a.graph, b.graph);
  ASSERT_NE(a.external_ids, nullptr);
  ASSERT_NE(b.external_ids, nullptr);
  EXPECT_EQ(*a.external_ids, *b.external_ids);
  ASSERT_NE(a.tombstones, nullptr);
  ASSERT_NE(b.tombstones, nullptr);
  EXPECT_EQ(*a.tombstones, *b.tombstones);
}

TEST(DynamicKnng, FreshBuildPublishesVersionOneAndCheckpoint) {
  ThreadPool pool(4);
  const auto dir = testing::unique_test_dir("dyn_fresh");
  DynamicKnng dyn(pool, small_params(), base_300(), dir.string(), manual());

  EXPECT_EQ(dyn.version(), 1u);
  EXPECT_TRUE(fs::exists(DynamicKnng::base_checkpoint_path(dir.string())));
  EXPECT_TRUE(fs::exists(data::wal_segment_path(dir.string(), 1)));

  const auto snap = dyn.snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version, 1u);
  EXPECT_EQ(snap->base.rows(), 300u);
  EXPECT_TRUE(snap->graph.check_invariants());
  // External ids start as the identity map; everything is live.
  for (std::uint32_t i = 0; i < 300; ++i) {
    EXPECT_EQ(snap->external_id(i), i);
    EXPECT_TRUE(dyn.contains(i));
  }
  EXPECT_TRUE(snap->exclusion_mask().empty() ||
              std::all_of(snap->exclusion_mask().begin(),
                          snap->exclusion_mask().end(),
                          [](std::uint8_t b) { return b == 0; }));

  const DynamicState st = dyn.state();
  EXPECT_EQ(st.total_rows, 300u);
  EXPECT_EQ(st.live_rows, 300u);
  EXPECT_EQ(st.tombstones, 0u);
  EXPECT_EQ(st.next_external, 300u);
  fs::remove_all(dir);
}

// The base build is core::KnngBuilder's: version 1 is the graph build_knng
// produces from the same parameters — row for row under the lock-based
// strategies, near-identical under atomic (whose CAS races may order ties
// differently).
class BaseBuildTest : public ::testing::TestWithParam<core::Strategy> {};

TEST_P(BaseBuildTest, VersionOneGraphEqualsBuildKnng) {
  ThreadPool pool(2);
  const auto dir = testing::unique_test_dir("dyn_base");
  const FloatMatrix pts = data::make_clusters(400, 10, 8, 0.1f, 3);
  core::BuildParams bp;
  bp.k = 6;
  bp.strategy = GetParam();
  bp.refine_iters = 1;

  DynamicKnng dyn(pool, bp, pts, dir.string(), manual());
  const core::BuildResult ref = core::build_knng(pool, pts, bp);
  const KnnGraph& got = dyn.snapshot()->graph;
  if (GetParam() == core::Strategy::kAtomic) {
    EXPECT_GT(core::edge_agreement(got, ref.graph), 0.99);
  } else {
    expect_same_graph(got, ref.graph);
    EXPECT_EQ(dyn.stats().distance_evals, ref.stats.distance_evals);
  }
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, BaseBuildTest,
                         ::testing::Values(core::Strategy::kBasic,
                                           core::Strategy::kAtomic,
                                           core::Strategy::kTiled,
                                           core::Strategy::kShared),
                         [](const auto& info) {
                           return core::strategy_name(info.param);
                         });

TEST(DynamicKnng, BaseCheckpointRecordsTheEffectiveStrategy) {
  // One 500-point bucket per tree overflows kShared's scratch budget, so the
  // builder's preflight degrades the pass to kTiled; the base checkpoint
  // must say so, along with the refine rounds actually completed.
  ThreadPool pool(2);
  const auto dir = testing::unique_test_dir("dyn_fallback");
  const FloatMatrix pts = data::make_clusters(500, 16, 8, 0.05f, 11);
  core::BuildParams bp;
  bp.k = 16;
  bp.num_trees = 2;
  bp.leaf_size = 512;
  bp.refine_iters = 1;
  bp.strategy = core::Strategy::kShared;

  DynamicKnng dyn(pool, bp, pts, dir.string(), manual());
  const data::BuildCheckpoint ck =
      data::read_checkpoint(DynamicKnng::base_checkpoint_path(dir.string()));
  EXPECT_EQ(ck.effective_strategy,
            static_cast<std::uint32_t>(core::Strategy::kTiled));
  EXPECT_EQ(ck.rounds_done, 1u);
  expect_same_graph(dyn.snapshot()->graph,
                    core::build_knng(pool, pts, bp).graph);
  fs::remove_all(dir);
}

TEST(DynamicKnng, NonFiniteBaseRowsAreRejectedBeforeAnyWrite) {
  ThreadPool pool(2);
  const auto dir = testing::unique_test_dir("dyn_nonfinite");
  FloatMatrix base = data::make_clusters(300, 8, 6, 0.1f, 31);
  base.row(7)[3] = std::numeric_limits<float>::quiet_NaN();

  EXPECT_THROW(DynamicKnng(pool, small_params(), base, dir.string(), manual()),
               MutationError);
  EXPECT_FALSE(fs::exists(DynamicKnng::base_checkpoint_path(dir.string())));
  EXPECT_FALSE(fs::exists(data::wal_segment_path(dir.string(), 1)));
  fs::remove_all(dir);
}

TEST(DynamicKnng, InsertAssignsIdsAndConnectsWell) {
  ThreadPool pool(4);
  const FloatMatrix base = base_300();
  const FloatMatrix batch = batch_near(base, 40, 77);
  FloatMatrix all(340, base.cols());
  for (std::size_t i = 0; i < 300; ++i) {
    std::copy(base.row(i).begin(), base.row(i).end(), all.row(i).begin());
  }
  for (std::size_t i = 0; i < 40; ++i) {
    std::copy(batch.row(i).begin(), batch.row(i).end(),
              all.row(300 + i).begin());
  }
  const KnnGraph truth = exact::brute_force_knng(pool, all, 6);

  for (const core::Strategy s : {core::Strategy::kBasic,
                                 core::Strategy::kAtomic,
                                 core::Strategy::kTiled}) {
    SCOPED_TRACE(core::strategy_name(s));
    const auto dir = testing::unique_test_dir("dyn_insert");
    core::BuildParams bp = small_params();
    bp.strategy = s;
    DynamicKnng dyn(pool, bp, base, dir.string(), manual());

    const std::vector<std::uint32_t> ids = dyn.insert(batch);
    ASSERT_EQ(ids.size(), 40u);
    EXPECT_EQ(ids.front(), 300u);
    EXPECT_EQ(ids.back(), 339u);
    EXPECT_EQ(dyn.version(), 2u);
    for (const std::uint32_t id : ids) EXPECT_TRUE(dyn.contains(id));

    // Inserted rows must land near their true neighbors in the combined set.
    const auto snap = dyn.snapshot();
    ASSERT_EQ(snap->graph.num_points(), 340u);
    double recall = 0.0;
    for (std::size_t p = 300; p < 340; ++p) {
      recall += exact::row_recall(snap->graph.row(p), truth.row(p));
    }
    EXPECT_GT(recall / 40.0, 0.6);
    EXPECT_TRUE(snap->graph.check_invariants());

    // Some old row must now list a new point: the reverse-edge push is what
    // makes inserted points reachable by later searches.
    bool any_reverse = false;
    for (std::size_t p = 0; p < 300 && !any_reverse; ++p) {
      for (const Neighbor& nb : snap->graph.row(p)) {
        if (nb.id == KnnGraph::kInvalid) break;
        any_reverse |= nb.id >= 300;
      }
    }
    EXPECT_TRUE(any_reverse);
    fs::remove_all(dir);
  }
}

/// Splits a dataset into an initial prefix and a batch suffix.
std::pair<FloatMatrix, FloatMatrix> split(const FloatMatrix& pts,
                                          std::size_t initial) {
  FloatMatrix a(initial, pts.cols());
  FloatMatrix b(pts.rows() - initial, pts.cols());
  for (std::size_t i = 0; i < initial; ++i) {
    std::copy(pts.row(i).begin(), pts.row(i).end(), a.row(i).begin());
  }
  for (std::size_t i = initial; i < pts.rows(); ++i) {
    std::copy(pts.row(i).begin(), pts.row(i).end(),
              b.row(i - initial).begin());
  }
  return {std::move(a), std::move(b)};
}

// Inserts through the dynamic index under each update strategy: the batch
// descent and reverse-edge push run on the strategy the base was built with.
class IncrementalTest : public ::testing::TestWithParam<core::Strategy> {};

TEST_P(IncrementalTest, InsertedPointsGetGoodNeighbors) {
  ThreadPool pool(2);
  const auto dir = testing::unique_test_dir("dyn_inc_recall");
  const FloatMatrix all = data::make_clusters(600, 12, 8, 0.1f, 7);
  auto [initial, batch] = split(all, 500);

  core::BuildParams bp;
  bp.k = 8;
  bp.strategy = GetParam();
  bp.refine_iters = 1;
  DynamicKnng dyn(pool, bp, initial, dir.string(), manual());
  dyn.insert(batch);
  ASSERT_EQ(dyn.state().total_rows, 600u);

  const auto snap = dyn.snapshot();
  EXPECT_TRUE(snap->graph.check_invariants());

  // Recall of the inserted points against exact ground truth on the full set.
  const KnnGraph truth = exact::brute_force_knng(pool, all, 8);
  double recall_sum = 0.0;
  for (std::size_t p = 500; p < 600; ++p) {
    recall_sum += exact::row_recall(snap->graph.row(p), truth.row(p));
  }
  EXPECT_GT(recall_sum / 100.0, 0.75) << core::strategy_name(GetParam());
  fs::remove_all(dir);
}

TEST_P(IncrementalTest, ExistingPointsLearnReverseEdges) {
  ThreadPool pool(2);
  const auto dir = testing::unique_test_dir("dyn_inc_reverse");
  const FloatMatrix all = data::make_clusters(300, 8, 4, 0.05f, 11);
  auto [initial, batch] = split(all, 250);

  core::BuildParams bp;
  bp.k = 5;
  bp.strategy = GetParam();
  DynamicKnng dyn(pool, bp, initial, dir.string(), manual());
  dyn.insert(batch);
  const auto snap = dyn.snapshot();

  // Some pre-existing point must now list a new point (id >= 250) among its
  // neighbors — the reverse-edge push is what keeps the graph searchable.
  bool any_reverse = false;
  for (std::size_t p = 0; p < 250 && !any_reverse; ++p) {
    for (const Neighbor& nb : snap->graph.row(p)) {
      if (nb.id == KnnGraph::kInvalid) break;
      any_reverse |= nb.id >= 250;
    }
  }
  EXPECT_TRUE(any_reverse);
  fs::remove_all(dir);
}

TEST_P(IncrementalTest, MultipleBatchesKeepInvariants) {
  ThreadPool pool(2);
  const auto dir = testing::unique_test_dir("dyn_inc_batches");
  const FloatMatrix all = data::make_uniform(400, 6, 13);
  auto [initial, rest] = split(all, 200);

  core::BuildParams bp;
  bp.k = 5;
  bp.strategy = GetParam();
  DynamicKnng dyn(pool, bp, initial, dir.string(), manual());
  for (std::size_t b = 0; b < 4; ++b) {
    auto [chunk, remaining] = split(rest, 50);
    dyn.insert(chunk);
    rest = std::move(remaining);
    ASSERT_TRUE(dyn.snapshot()->graph.check_invariants()) << "batch " << b;
  }
  EXPECT_EQ(dyn.state().total_rows, 400u);
  fs::remove_all(dir);
}

TEST_P(IncrementalTest, EmptyBatchThrowsTypedError) {
  ThreadPool pool(1);
  const auto dir = testing::unique_test_dir("dyn_inc_empty");
  const FloatMatrix pts = data::make_uniform(100, 4, 19);
  core::BuildParams bp;
  bp.k = 4;
  bp.strategy = GetParam();
  DynamicKnng dyn(pool, bp, pts, dir.string(), manual());
  const FloatMatrix empty(0, 4);
  EXPECT_THROW(dyn.insert(empty), MutationError);
  // Rejected batches never mutate the index.
  EXPECT_EQ(dyn.state().total_rows, 100u);
  EXPECT_EQ(dyn.version(), 1u);
  fs::remove_all(dir);
}

TEST_P(IncrementalTest, DimensionMismatchThrowsTypedError) {
  ThreadPool pool(1);
  const auto dir = testing::unique_test_dir("dyn_inc_dim");
  const FloatMatrix pts = data::make_uniform(100, 4, 19);
  core::BuildParams bp;
  bp.k = 4;
  bp.strategy = GetParam();
  DynamicKnng dyn(pool, bp, pts, dir.string(), manual());
  const FloatMatrix wrong_dim = data::make_uniform(10, 6, 21);
  EXPECT_THROW(dyn.insert(wrong_dim), MutationError);
  EXPECT_EQ(dyn.state().total_rows, 100u);
  EXPECT_EQ(dyn.version(), 1u);
  EXPECT_TRUE(dyn.snapshot()->graph.check_invariants());
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, IncrementalTest,
                         ::testing::Values(core::Strategy::kBasic,
                                           core::Strategy::kAtomic,
                                           core::Strategy::kTiled),
                         [](const auto& info) {
                           return core::strategy_name(info.param);
                         });

TEST(Incremental, StatsAccumulateAcrossBatches) {
  ThreadPool pool(2);
  const auto dir = testing::unique_test_dir("dyn_inc_stats");
  const FloatMatrix all = data::make_uniform(300, 6, 23);
  auto [initial, rest] = split(all, 200);
  core::BuildParams bp;
  bp.k = 5;
  DynamicKnng dyn(pool, bp, initial, dir.string(), manual());
  std::uint64_t before = dyn.stats().distance_evals;
  EXPECT_GT(before, 0u);
  auto [first, second] = split(rest, 50);
  dyn.insert(first);
  EXPECT_GT(dyn.stats().distance_evals, before);
  before = dyn.stats().distance_evals;
  dyn.insert(second);
  EXPECT_GT(dyn.stats().distance_evals, before);
  fs::remove_all(dir);
}

TEST(DynamicKnng, InsertAdmissionIsTypedAndAtomic) {
  ThreadPool pool(2);
  const auto dir = testing::unique_test_dir("dyn_admit");
  DynamicKnng dyn(pool, small_params(), base_300(), dir.string(), manual());

  const FloatMatrix empty(0, 8);
  EXPECT_THROW(dyn.insert(empty), MutationError);

  const FloatMatrix wrong_dim(4, 5);
  EXPECT_THROW(dyn.insert(wrong_dim), MutationError);

  FloatMatrix poisoned = batch_near(dyn.snapshot()->base, 4, 5);
  poisoned.row(2)[1] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW(dyn.insert(poisoned), MutationError);

  // Rejected batches never reach the log or bump the version.
  EXPECT_EQ(dyn.version(), 1u);
  EXPECT_EQ(dyn.state().total_rows, 300u);
  EXPECT_EQ(dyn.metrics().wal_records.value(), 0u);
  fs::remove_all(dir);
}

TEST(DynamicKnng, DeletesAreImmediatelyInvisibleToSearch) {
  ThreadPool pool(4);
  const auto dir = testing::unique_test_dir("dyn_delete");
  const FloatMatrix base = base_300();
  DynamicKnng dyn(pool, small_params(), base, dir.string(), manual());

  const std::vector<std::uint32_t> victims = {3, 17, 42, 250};
  ASSERT_EQ(dyn.erase(victims), victims.size());
  EXPECT_EQ(dyn.version(), 2u);
  for (const std::uint32_t v : victims) EXPECT_FALSE(dyn.contains(v));

  // The new snapshot carries the mask; querying AT a deleted point must not
  // return it even though the graph rows still reference it (repair is lazy).
  const auto snap = dyn.snapshot();
  ASSERT_EQ(snap->exclusion_mask().size(), 300u);
  FloatMatrix queries(victims.size(), base.cols());
  for (std::size_t i = 0; i < victims.size(); ++i) {
    const auto src = base.row(victims[i]);
    std::copy(src.begin(), src.end(), queries.row(i).begin());
  }
  core::SearchParams sp;
  sp.k = 6;
  const core::BatchSearchResult found = core::graph_search_batch(
      pool, snap->base, snap->graph, queries, {}, sp, nullptr, nullptr,
      nullptr, snap->exclusion_mask());
  const std::unordered_set<std::uint32_t> dead(victims.begin(), victims.end());
  for (std::size_t q = 0; q < victims.size(); ++q) {
    ASSERT_GT(found.results.row_size(q), 0u);
    for (const Neighbor& nb : found.results.row(q)) {
      if (nb.id == KnnGraph::kInvalid) break;
      EXPECT_EQ(dead.count(snap->external_id(nb.id)), 0u)
          << "deleted point " << snap->external_id(nb.id)
          << " surfaced for query " << q;
    }
  }

  // Double-delete and unknown ids are no-ops: nothing logged, no bump.
  EXPECT_EQ(dyn.erase(victims), 0u);
  const std::vector<std::uint32_t> unknown = {9999};
  EXPECT_EQ(dyn.erase(unknown), 0u);
  EXPECT_EQ(dyn.version(), 2u);
  fs::remove_all(dir);
}

TEST(DynamicKnng, RepairClearsDirtyRowsAndKeepsInvariants) {
  ThreadPool pool(4);
  const auto dir = testing::unique_test_dir("dyn_repair");
  const FloatMatrix base = base_300();
  DynamicKnng dyn(pool, small_params(), base, dir.string(), manual());

  dyn.insert(batch_near(base, 30, 11));
  std::vector<std::uint32_t> victims;
  for (std::uint32_t v = 0; v < 20; ++v) victims.push_back(v * 7);
  dyn.erase(victims);
  ASSERT_GT(dyn.state().dirty_rows, 0u);

  const std::uint64_t before = dyn.version();
  EXPECT_GT(dyn.repair(), 0u);
  EXPECT_EQ(dyn.version(), before + 1);
  EXPECT_EQ(dyn.state().dirty_rows, 0u);
  EXPECT_TRUE(dyn.snapshot()->graph.check_invariants());

  // Nothing dirty -> nothing to do, nothing logged.
  EXPECT_EQ(dyn.repair(), 0u);
  EXPECT_EQ(dyn.version(), before + 1);
  fs::remove_all(dir);
}

TEST(DynamicKnng, RepairRefillsRowsWithDistinctNeighbors) {
  ThreadPool pool(4);
  const auto dir = testing::unique_test_dir("dyn_refill");
  const FloatMatrix base = base_300();
  const core::BuildParams bp = small_params();
  DynamicKnng dyn(pool, bp, base, dir.string(), manual());

  std::vector<std::uint32_t> victims;
  for (std::uint32_t v = 0; v < 80; ++v) victims.push_back(v * 4);
  dyn.erase(victims);
  dyn.repair();

  // A repaired row keeps its surviving entries and fills the freed slots
  // with new candidates. Were an entry re-offered as a candidate, the row
  // would hold it twice and extraction would leave the row short of k.
  const auto snap = dyn.snapshot();
  std::size_t live = 0;
  std::size_t short_rows = 0;
  for (std::size_t p = 0; p < snap->graph.num_points(); ++p) {
    if ((*snap->tombstones)[p] != 0) continue;
    ++live;
    if (snap->graph.row_size(p) < bp.k) ++short_rows;
  }
  ASSERT_EQ(live, 225u);  // ids 300..316 do not exist: 75 erased
  EXPECT_LE(short_rows, live / 20) << short_rows << " of " << live;
  fs::remove_all(dir);
}

// Repair can raise a row's worst: tombstones leave the row short, so its
// worst becomes kEmpty. The atomic strategy prunes inserts against a
// per-row bound, so the repair write must reset that bound, or an insert
// between the old and the new worst would be silently dropped.
TEST(DynamicKnng, AtomicInsertLandsInARowRepairLeftShort) {
  ThreadPool pool(2);
  const auto dir = testing::unique_test_dir("dyn_short_row");
  // Row 0 sits at the origin with four near neighbors; the rest are far.
  FloatMatrix base(16, 2);
  const float near[4][2] = {{1.0f, 0.0f}, {0.0f, 1.1f}, {-1.2f, 0.0f},
                            {0.0f, -1.3f}};
  for (std::size_t i = 0; i < 4; ++i) {
    base.row(i + 1)[0] = near[i][0];
    base.row(i + 1)[1] = near[i][1];
  }
  for (std::size_t i = 5; i < 16; ++i) {
    base.row(i)[0] = 10.0f + static_cast<float>(i);
    base.row(i)[1] = 10.0f;
  }
  core::BuildParams bp = small_params();
  bp.k = 4;
  bp.strategy = core::Strategy::kAtomic;
  DynamicKnng dyn(pool, bp, base, dir.string(), manual());
  ASSERT_EQ(dyn.snapshot()->graph.row_size(0), 4u);
  const float old_worst = dyn.snapshot()->graph.row(0)[3].dist;

  // Leave row 0 two live peers at most: the repaired row is short.
  std::vector<std::uint32_t> victims;
  for (std::uint32_t v = 1; v < 14; ++v) victims.push_back(v);
  dyn.erase(victims);
  ASSERT_GT(dyn.repair(), 0u);
  ASSERT_LT(dyn.snapshot()->graph.row_size(0), 4u);

  // Row 0 is the new point's nearest live peer, farther than the old worst.
  FloatMatrix point(1, 2);
  point.row(0)[0] = 2.0f;
  const float dist = 4.0f;
  ASSERT_GT(dist, old_worst);
  const std::vector<std::uint32_t> ids = dyn.insert(point);
  const auto row = dyn.snapshot()->graph.row(0);
  EXPECT_TRUE(std::any_of(row.begin(), row.end(), [&](const Neighbor& nb) {
    return nb.id == ids[0] && nb.dist == dist;
  }));
  fs::remove_all(dir);
}

// Repair dedups each row's candidate pool on the worker's visited bitmap
// and must clear every bit it set: afterwards a launch on the same pool finds
// every worker's bitmap clear, across two repair passes over a grown index.
TEST(DynamicKnng, RepairLeavesEveryWorkerBitmapClear) {
  ThreadPool pool(3);
  const auto dir = testing::unique_test_dir("dyn_bitmap");
  const FloatMatrix base = base_300();
  DynamicKnng dyn(pool, small_params(), base, dir.string(), manual());

  const auto dirty_bitmaps = [&] {
    std::atomic<std::size_t> dirty{0};
    const std::size_t rows = dyn.snapshot()->graph.num_points();
    simt::launch_warps(pool, 256, nullptr, [&](simt::Warp&) {
      if (!simt::thread_visited(rows).all_clear()) dirty.fetch_add(1);
    });
    return dirty.load();
  };
  for (int pass = 0; pass < 2; ++pass) {
    dyn.insert(batch_near(base, 40, 21 + pass));
    std::vector<std::uint32_t> victims;
    for (std::uint32_t v = 0; v < 10; ++v) victims.push_back(v * 11 + pass);
    dyn.erase(victims);
    EXPECT_GT(dyn.repair(), 0u);
    EXPECT_EQ(dirty_bitmaps(), 0u) << "pass " << pass;
  }
  fs::remove_all(dir);
}

TEST(DynamicKnng, CompactionReclaimsSlotsWithStableExternalIds) {
  ThreadPool pool(4);
  const auto dir = testing::unique_test_dir("dyn_compact");
  const FloatMatrix base = base_300();
  DynamicKnng dyn(pool, small_params(), base, dir.string(), manual());

  const std::vector<std::uint32_t> fresh = dyn.insert(batch_near(base, 20, 3));

  // Tombstone well past the 25% compaction threshold.
  std::vector<std::uint32_t> victims;
  for (std::uint32_t v = 0; v < 90; ++v) victims.push_back(v);
  ASSERT_EQ(dyn.erase(victims), 90u);
  ASSERT_GE(dyn.state().tombstone_ratio, 0.25);

  const std::uint64_t before = dyn.version();
  ASSERT_TRUE(dyn.compact());
  EXPECT_EQ(dyn.version(), before + 1);

  const DynamicState st = dyn.state();
  EXPECT_EQ(st.total_rows, 230u);  // 300 + 20 - 90
  EXPECT_EQ(st.live_rows, 230u);
  EXPECT_EQ(st.tombstones, 0u);

  // External ids survive the row rewrite: every survivor still resolves and
  // every victim stays gone. The points behind the ids are unchanged.
  const auto snap = dyn.snapshot();
  ASSERT_EQ(snap->base.rows(), 230u);
  for (const std::uint32_t v : victims) EXPECT_FALSE(dyn.contains(v));
  for (std::uint32_t survivor = 90; survivor < 300; ++survivor) {
    EXPECT_TRUE(dyn.contains(survivor));
  }
  for (const std::uint32_t id : fresh) EXPECT_TRUE(dyn.contains(id));
  // Internal row i now maps to external id i + 90 for the original prefix
  // (monotone remap), and the row data matches the original base row.
  for (std::uint32_t i = 0; i < 210; ++i) {
    ASSERT_EQ(snap->external_id(i), i + 90);
    const auto got = snap->base.row(i);
    const auto want = base.row(i + 90);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin()));
  }
  // No graph row may reference a dropped slot.
  EXPECT_TRUE(snap->graph.check_invariants());
  for (std::size_t p = 0; p < snap->graph.num_points(); ++p) {
    for (const Neighbor& nb : snap->graph.row(p)) {
      if (nb.id == KnnGraph::kInvalid) break;
      ASSERT_LT(nb.id, 230u);
    }
  }
  EXPECT_GT(dyn.metrics().reclaimed_rows.value(), 0u);

  // With no tombstones there is nothing to compact.
  EXPECT_FALSE(dyn.compact());
  EXPECT_EQ(dyn.version(), before + 1);
  fs::remove_all(dir);
}

TEST(DynamicKnng, AutoMaintainCompactsPastTheThreshold) {
  ThreadPool pool(4);
  const auto dir = testing::unique_test_dir("dyn_auto");
  DynamicParams dp;  // defaults: auto_maintain on, compact at 25%
  const FloatMatrix base = base_300();
  DynamicKnng dyn(pool, small_params(), base, dir.string(), dp);

  std::vector<std::uint32_t> victims;
  for (std::uint32_t v = 0; v < 100; ++v) victims.push_back(v);
  dyn.erase(victims);

  // erase itself ran maintain(): the tombstones are gone already.
  const DynamicState st = dyn.state();
  EXPECT_EQ(st.tombstones, 0u);
  EXPECT_EQ(st.total_rows, 200u);
  EXPECT_EQ(dyn.metrics().compactions.value(), 1u);
  fs::remove_all(dir);
}

TEST(DynamicKnng, ReplayReproducesTheLiveStateBitForBit) {
  ThreadPool pool(4);
  const auto dir = testing::unique_test_dir("dyn_replay");
  const FloatMatrix base = base_300();
  const core::BuildParams bp = small_params();

  std::shared_ptr<const serve::GraphSnapshot> live;
  {
    DynamicKnng dyn(pool, bp, base, dir.string(), manual());
    dyn.insert(batch_near(base, 40, 101));
    std::vector<std::uint32_t> victims;
    for (std::uint32_t v = 0; v < 80; ++v) victims.push_back(v * 4);
    dyn.erase(victims);
    dyn.repair();
    dyn.insert(batch_near(base, 10, 102));
    ASSERT_TRUE(dyn.compact());
    dyn.erase(std::vector<std::uint32_t>{340, 341});
    ASSERT_EQ(dyn.version(), 7u);
    live = dyn.snapshot();
  }

  DynamicKnng recovered(DynamicKnng::Recover{}, pool, bp, base, dir.string(),
                        manual());
  EXPECT_FALSE(recovered.replay_torn_tail());
  EXPECT_EQ(recovered.version(), 7u);
  EXPECT_GT(recovered.metrics().replayed_records.value(), 0u);
  expect_identical(*live, *recovered.snapshot());

  // The recovered index keeps accepting mutations on the same log.
  recovered.insert(batch_near(base, 5, 103));
  EXPECT_EQ(recovered.version(), 8u);
  fs::remove_all(dir);
}

TEST(DynamicKnng, RecoveryDiscardsATornTailAndContinues) {
  ThreadPool pool(4);
  const auto dir = testing::unique_test_dir("dyn_torn");
  const FloatMatrix base = base_300();
  const core::BuildParams bp = small_params();

  std::shared_ptr<const serve::GraphSnapshot> at_v3;
  {
    DynamicKnng dyn(pool, bp, base, dir.string(), manual());
    dyn.insert(batch_near(base, 10, 7));                 // v2
    dyn.erase(std::vector<std::uint32_t>{1, 2, 3});      // v3
    at_v3 = dyn.snapshot();
    dyn.insert(batch_near(base, 10, 8));                 // v4 -- to be torn
    ASSERT_EQ(dyn.version(), 4u);
  }

  // SIGKILL simulation: the final record loses its tail bytes.
  std::uint64_t last_seq = 1;
  while (fs::exists(data::wal_segment_path(dir.string(), last_seq + 1))) {
    ++last_seq;
  }
  const std::string seg = data::wal_segment_path(dir.string(), last_seq);
  fs::resize_file(seg, fs::file_size(seg) - 7);

  DynamicKnng recovered(DynamicKnng::Recover{}, pool, bp, base, dir.string(),
                        manual());
  EXPECT_TRUE(recovered.replay_torn_tail());
  EXPECT_EQ(recovered.version(), 3u);
  expect_identical(*at_v3, *recovered.snapshot());

  // Life goes on from the surviving prefix.
  recovered.insert(batch_near(base, 4, 9));
  EXPECT_EQ(recovered.version(), 4u);
  DynamicKnng again(DynamicKnng::Recover{}, pool, bp, base, dir.string(),
                    manual());
  EXPECT_EQ(again.version(), 4u);
  EXPECT_FALSE(again.replay_torn_tail());
  fs::remove_all(dir);
}

TEST(DynamicKnng, RecoverRejectsMismatchedParams) {
  ThreadPool pool(2);
  const auto dir = testing::unique_test_dir("dyn_mismatch");
  const FloatMatrix base = base_300();
  { DynamicKnng dyn(pool, small_params(), base, dir.string(), manual()); }

  core::BuildParams other = small_params();
  other.k = 8;  // different signature -> the checkpoint is not ours
  EXPECT_THROW(DynamicKnng(DynamicKnng::Recover{}, pool, other, base,
                           dir.string(), manual()),
               CheckpointMismatchError);
  fs::remove_all(dir);
}

TEST(DynamicKnng, MetricsTrackTheLifecycle) {
  ThreadPool pool(4);
  const auto dir = testing::unique_test_dir("dyn_metrics");
  const FloatMatrix base = base_300();
  DynamicKnng dyn(pool, small_params(), base, dir.string(), manual());
  const std::uint64_t base_evals = dyn.stats().distance_evals;
  EXPECT_GT(base_evals, 0u);

  dyn.insert(batch_near(base, 12, 55));
  EXPECT_GT(dyn.stats().distance_evals, base_evals);
  dyn.erase(std::vector<std::uint32_t>{0, 1});
  dyn.repair();

  const DynamicMetrics& m = dyn.metrics();
  EXPECT_EQ(m.inserts.value(), 1u);
  EXPECT_EQ(m.insert_rows.value(), 12u);
  EXPECT_EQ(m.deletes.value(), 1u);
  EXPECT_EQ(m.delete_rows.value(), 2u);
  EXPECT_EQ(m.repairs.value(), 1u);
  EXPECT_EQ(m.wal_records.value(), 3u);
  EXPECT_GT(m.wal_bytes.value(), 0u);
  EXPECT_EQ(m.version.value(), 4);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace wknng::dynamic
