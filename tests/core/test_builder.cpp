#include "core/builder.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "data/synthetic.hpp"
#include "exact/brute_force.hpp"
#include "exact/recall.hpp"

namespace wknng::core {
namespace {

class BuilderTest : public ::testing::TestWithParam<Strategy> {};

TEST_P(BuilderTest, ProducesValidGraphWithGoodRecall) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(600, 16, 10, 0.1f, 23);
  BuildParams params;
  params.k = 10;
  params.strategy = GetParam();
  params.num_trees = 6;
  params.leaf_size = 48;
  params.refine_iters = 1;

  const BuildResult r = build_knng(pool, pts, params);
  ASSERT_EQ(r.graph.num_points(), 600u);
  ASSERT_EQ(r.graph.k(), 10u);
  EXPECT_TRUE(r.graph.check_invariants());

  const KnnGraph truth = exact::brute_force_knng(pool, pts, 10);
  const double rec = exact::recall(r.graph, truth);
  EXPECT_GT(rec, 0.85) << "strategy " << strategy_name(params.strategy);
}

TEST_P(BuilderTest, PhaseTimingsArePopulated) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_uniform(300, 8, 29);
  BuildParams params;
  params.k = 5;
  params.strategy = GetParam();
  params.refine_iters = 1;
  const BuildResult r = build_knng(pool, pts, params);
  EXPECT_GT(r.forest_seconds, 0.0);
  EXPECT_GT(r.leaf_seconds, 0.0);
  EXPECT_GT(r.refine_seconds, 0.0);
  EXPECT_GT(r.extract_seconds, 0.0);
  EXPECT_GE(r.total_seconds, r.forest_seconds + r.leaf_seconds +
                                 r.refine_seconds + r.extract_seconds - 1e-6);
  EXPECT_GT(r.num_buckets, 0u);
  EXPECT_GT(r.stats.distance_evals, 0u);
}

TEST_P(BuilderTest, ZeroRefineItersSkipsPhase) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_uniform(200, 6, 31);
  BuildParams params;
  params.k = 4;
  params.strategy = GetParam();
  params.refine_iters = 0;
  const BuildResult r = build_knng(pool, pts, params);
  EXPECT_TRUE(r.graph.check_invariants());
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, BuilderTest,
                         ::testing::Values(Strategy::kBasic, Strategy::kAtomic,
                                           Strategy::kTiled, Strategy::kShared),
                         [](const auto& info) {
                           return strategy_name(info.param);
                         });

TEST(Builder, MoreTreesImproveRecall) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_uniform(500, 12, 37);
  const KnnGraph truth = exact::brute_force_knng(pool, pts, 8);

  auto recall_with_trees = [&](std::size_t trees) {
    BuildParams params;
    params.k = 8;
    params.num_trees = trees;
    params.refine_iters = 0;
    return exact::recall(build_knng(pool, pts, params).graph, truth);
  };
  const double r1 = recall_with_trees(1);
  const double r8 = recall_with_trees(8);
  EXPECT_GT(r8, r1);
}

TEST(Builder, DeterministicForLockedStrategies) {
  ThreadPool pool(4);
  const FloatMatrix pts = data::make_clusters(400, 10, 8, 0.1f, 41);
  BuildParams params;
  params.k = 6;
  params.strategy = Strategy::kTiled;
  params.refine_iters = 1;
  const KnnGraph a = build_knng(pool, pts, params).graph;
  const KnnGraph b = build_knng(pool, pts, params).graph;
  for (std::size_t i = 0; i < a.num_points(); ++i) {
    for (std::size_t s = 0; s < a.k(); ++s) {
      ASSERT_EQ(a.row(i)[s].id, b.row(i)[s].id) << "point " << i;
    }
  }
}

TEST(Builder, RejectsInvalidParams) {
  ThreadPool pool(1);
  BuildParams params;
  params.k = 0;
  EXPECT_THROW(KnngBuilder(pool, params), Error);
  params.k = 5;
  params.num_trees = 0;
  EXPECT_THROW(KnngBuilder(pool, params), Error);
  params.num_trees = 1;
  params.leaf_size = 1;
  EXPECT_THROW(KnngBuilder(pool, params), Error);
}

TEST(Builder, RejectsTooFewPoints) {
  ThreadPool pool(1);
  const FloatMatrix pts = data::make_uniform(5, 3, 1);
  BuildParams params;
  params.k = 10;
  EXPECT_THROW(build_knng(pool, pts, params), Error);
}

TEST(Builder, RecommendedStrategyFollowsDimensions) {
  EXPECT_EQ(recommended_strategy(4), Strategy::kAtomic);
  EXPECT_EQ(recommended_strategy(16), Strategy::kAtomic);
  EXPECT_EQ(recommended_strategy(64), Strategy::kTiled);
  EXPECT_EQ(recommended_strategy(960), Strategy::kTiled);
}

TEST(Builder, StrategyNamesRoundTrip) {
  for (Strategy s : {Strategy::kBasic, Strategy::kAtomic, Strategy::kTiled,
                     Strategy::kShared}) {
    EXPECT_EQ(strategy_from_name(strategy_name(s)), s);
  }
  EXPECT_THROW(strategy_from_name("bogus"), Error);
}

// Saved checkpoints and dynamic-index WAL anchors store this hash and are
// refused when it differs, so any change to what it mixes orphans them.
TEST(BuildSignature, MatchesPinnedValues) {
  EXPECT_EQ(build_signature(BuildParams{}, 1000, 16), 0x2B21BF5D81E605C1ULL);
  BuildParams sq8;
  sq8.compression = Compression::kSq8;
  EXPECT_EQ(build_signature(sq8, 1000, 16), 0x12257B77B4AD8CDFULL);
}

}  // namespace
}  // namespace wknng::core
