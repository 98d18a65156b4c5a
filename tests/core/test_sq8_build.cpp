// End-to-end tests of the SQ8 compressed hot path: recall regression of
// compression=sq8 builds against fp32 at several rerank depths, the
// compression=none no-change guarantee, checkpoint/resume with the code
// trailer, quarantine composition, and the compressed search/serve path.

#include "core/builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/knn_set.hpp"
#include "core/graph_search.hpp"
#include "data/graph_io.hpp"
#include "data/synthetic.hpp"
#include "exact/brute_force.hpp"
#include "exact/recall.hpp"
#include "kernels/kernels.hpp"
#include "kernels/sq8.hpp"
#include "serve/engine.hpp"
#include "serve/snapshot.hpp"

namespace wknng::core {
namespace {

bool graphs_identical(const KnnGraph& a, const KnnGraph& b) {
  if (a.num_points() != b.num_points() || a.k() != b.k()) return false;
  for (std::size_t i = 0; i < a.num_points(); ++i) {
    const auto ra = a.row(i);
    const auto rb = b.row(i);
    for (std::size_t s = 0; s < a.k(); ++s) {
      if (ra[s].id != rb[s].id) return false;
      if (ra[s].id != KnnGraph::kInvalid && ra[s].dist != rb[s].dist) {
        return false;
      }
    }
  }
  return true;
}

// The acceptance gate of the PR: sq8 recall@10 stays within 1% of the fp32
// build, at the auto depth and at explicit depths bracketing it.
TEST(Sq8Build, RecallWithinOnePercentOfFp32) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(1500, 32, 12, 0.15f, 71);
  const KnnGraph truth = exact::brute_force_knng(pool, pts, 10);

  BuildParams params;
  params.k = 10;
  params.num_trees = 8;
  params.refine_iters = 2;
  const double fp32_recall =
      exact::recall(build_knng(pool, pts, params).graph, truth);
  EXPECT_GT(fp32_recall, 0.9);

  // Depths at and above the auto policy (2k): within 1% of fp32.
  for (const std::size_t depth : {std::size_t{0}, std::size_t{20},
                                  std::size_t{40}}) {
    BuildParams sq8_params = params;
    sq8_params.compression = Compression::kSq8;
    sq8_params.rerank_depth = depth;
    const BuildResult r = build_knng(pool, pts, sq8_params);
    ASSERT_TRUE(r.graph.check_invariants());
    const double sq8_recall = exact::recall(r.graph, truth);
    EXPECT_GE(sq8_recall, fp32_recall - 0.01)
        << "rerank_depth=" << depth << " fp32=" << fp32_recall;
  }

  // depth == k is the degenerate no-widening case: the rerank re-orders the
  // same k survivors, so quantization error in admission is unrecoverable
  // and recall drops. Documented trade-off, not a defect — but it must stay
  // a graceful degradation, not a collapse.
  BuildParams narrow = params;
  narrow.compression = Compression::kSq8;
  narrow.rerank_depth = 10;
  const double narrow_recall =
      exact::recall(build_knng(pool, pts, narrow).graph, truth);
  EXPECT_GE(narrow_recall, 0.5) << "fp32=" << fp32_recall;
}

// Compressed builds emit exact fp32 distances: every surviving edge's
// distance is the true squared L2, not the compressed approximation.
TEST(Sq8Build, EmittedDistancesAreExact) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(500, 24, 8, 0.2f, 5);
  BuildParams params;
  params.k = 8;
  params.compression = Compression::kSq8;
  const BuildResult r = build_knng(pool, pts, params);
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    const auto row = r.graph.row(i);
    for (std::size_t s = 0; s < r.graph.row_size(i); ++s) {
      const float exact_d =
          kernels::l2_one(pts.row(i), pts.row(row[s].id));
      EXPECT_EQ(row[s].dist, exact_d) << "point " << i << " slot " << s;
    }
  }
}

// The compressed tier's artifacts are reported: the trained codes, the
// resolved depth, the rerank phase timing, and the rescore counter.
TEST(Sq8Build, PopulatesCompressionArtifacts) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_uniform(400, 16, 99);
  BuildParams params;
  params.k = 6;
  params.compression = Compression::kSq8;
  params.rerank_depth = 15;
  const BuildResult r = build_knng(pool, pts, params);
  ASSERT_NE(r.sq8, nullptr);
  EXPECT_EQ(r.sq8->rows(), 400u);
  EXPECT_EQ(r.sq8->dim(), 16u);
  EXPECT_EQ(r.rerank_depth_used, 15u);
  EXPECT_GT(r.rerank_seconds, 0.0);
  EXPECT_GT(r.candidates_reranked, 0u);
  EXPECT_EQ(r.graph.k(), 6u);

  // Depth 0 resolves to the auto policy (2k); depths below k clamp up to k.
  params.rerank_depth = 0;
  EXPECT_EQ(build_knng(pool, pts, params).rerank_depth_used, 12u);
  params.rerank_depth = 2;
  EXPECT_EQ(build_knng(pool, pts, params).rerank_depth_used, 6u);
}

// compression=none is the default and stays bit-for-bit the pre-compression
// builder: no codes trained, no rerank phase, deterministic graphs.
TEST(Sq8Build, CompressionNoneIsUnchanged) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(600, 12, 6, 0.2f, 31);
  BuildParams params;
  params.k = 8;
  EXPECT_EQ(params.compression, Compression::kNone);
  // rerank_depth must be inert without compression: identical graphs.
  BuildParams with_depth = params;
  with_depth.rerank_depth = 50;
  const BuildResult a = build_knng(pool, pts, params);
  const BuildResult b = build_knng(pool, pts, with_depth);
  EXPECT_EQ(a.sq8, nullptr);
  EXPECT_EQ(a.rerank_seconds, 0.0);
  EXPECT_EQ(a.candidates_reranked, 0u);
  EXPECT_TRUE(graphs_identical(a.graph, b.graph));
}

TEST(Sq8Build, CompressionNameRoundTrip) {
  EXPECT_STREQ(compression_name(Compression::kNone), "none");
  EXPECT_STREQ(compression_name(Compression::kSq8), "sq8");
  EXPECT_EQ(compression_from_name("none"), Compression::kNone);
  EXPECT_EQ(compression_from_name("sq8"), Compression::kSq8);
  EXPECT_THROW(compression_from_name("pq"), Error);
}

// Non-finite rows quarantine cleanly under sq8 (the codec is trained on the
// sanitized copy, so training never sees the NaN).
TEST(Sq8Build, QuarantineComposesWithCompression) {
  ThreadPool pool(2);
  FloatMatrix pts = data::make_uniform(300, 10, 43);
  pts(17, 3) = std::numeric_limits<float>::quiet_NaN();
  pts(205, 0) = std::numeric_limits<float>::infinity();
  BuildParams params;
  params.k = 5;
  params.compression = Compression::kSq8;
  const BuildResult r = build_knng(pool, pts, params);
  EXPECT_EQ(r.quarantined_ids, (std::vector<std::uint32_t>{17, 205}));
  EXPECT_TRUE(r.graph.check_invariants());
  ASSERT_NE(r.sq8, nullptr);
  // No healthy point may list a quarantined one as a finite neighbor.
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    if (i == 17 || i == 205) continue;
    for (const Neighbor& nb : r.graph.row(i)) {
      if (nb.id == KnnGraph::kInvalid) break;
      EXPECT_NE(nb.id, 17u);
      EXPECT_NE(nb.id, 205u);
    }
  }
}

// Checkpoint/resume with compression: the codes persist through the trailer
// and the resumed build reproduces the uninterrupted one bit for bit under
// a deterministic schedule.
TEST(Sq8Build, CheckpointResumeReproducesBuild) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(400, 12, 5, 0.2f, 77);
  BuildParams params;
  params.k = 6;
  params.refine_iters = 2;
  params.compression = Compression::kSq8;
  params.schedule.policy = simt::SchedulePolicy::kSequential;
  const std::string path = ::testing::TempDir() + "sq8_build_ckpt.wkcp";
  params.checkpoint_path = path;

  const KnngBuilder builder(pool, params);
  const BuildResult full = builder.build(pts);

  const data::BuildCheckpoint ckpt = data::read_checkpoint(path);
  ASSERT_NE(ckpt.sq8, nullptr) << "sq8 codes missing from the checkpoint";
  const BuildResult resumed = builder.resume(pts, ckpt);
  EXPECT_TRUE(graphs_identical(full.graph, resumed.graph));

  // A parameter flip (depth participates in the signature under sq8) is a
  // typed mismatch, not silent reuse.
  BuildParams other = params;
  other.rerank_depth = 99;
  EXPECT_THROW(KnngBuilder(pool, other).resume(pts, ckpt),
               CheckpointMismatchError);
  std::remove(path.c_str());
}

// Graph search through the compressed tier: neighbors carry exact fp32
// distances, and recall against the uncompressed search stays high.
// SQ8 scoring is asymmetric: the leaf tile offers d(a, decode(b)) to both a
// and b, while refinement offers d(p, decode(r)). So one pair can reach a
// sorted row with two distances, and the row must keep only the smaller:
// a second copy of an id wastes a slot of the rerank pool.
TEST(Sq8Build, SortedRowsHoldEachIdOnce) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(1500, 32, 12, 0.15f, 71);
  for (const Strategy strategy : {Strategy::kTiled, Strategy::kShared}) {
    for (const Compression compression :
         {Compression::kNone, Compression::kSq8}) {
      BuildParams params;
      params.k = 10;
      params.num_trees = 8;
      params.refine_iters = 2;
      params.strategy = strategy;
      params.compression = compression;
      const std::size_t k_build =
          compression == Compression::kSq8
              ? effective_rerank_depth(params.k, params.rerank_depth)
              : params.k;
      KnnSetArray sets(pts.rows(), k_build);
      KnngBuilder(pool, params).build(pts, &sets);

      std::size_t rows_with_duplicates = 0;
      std::vector<std::uint32_t> ids;
      for (std::size_t p = 0; p < pts.rows(); ++p) {
        ids.clear();
        for (std::size_t s = 0; s < k_build; ++s) {
          const std::uint64_t v = sets.row(p)[s];
          if (!simt::Packed::is_empty(v)) ids.push_back(simt::Packed::id(v));
        }
        std::sort(ids.begin(), ids.end());
        if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
          ++rows_with_duplicates;
        }
      }
      EXPECT_EQ(rows_with_duplicates, 0u)
          << strategy_name(strategy) << "/" << compression_name(compression);
    }
  }
}

TEST(Sq8Search, CompressedSearchMatchesFp32) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(1200, 24, 10, 0.15f, 3);
  BuildParams bp;
  bp.k = 10;
  const KnnGraph graph = build_knng(pool, pts, bp).graph;
  const FloatMatrix queries = data::make_clusters(64, 24, 10, 0.15f, 4);

  SearchParams sp;
  sp.k = 10;
  const KnnGraph fp32 = graph_search(pool, pts, graph, queries, sp);

  const auto codes =
      std::make_shared<const kernels::Sq8Matrix>(kernels::sq8_encode(pts));
  std::vector<float> terms;
  if (!kernels::strict_mode()) terms = kernels::sq8_code_terms(*codes);
  const kernels::Sq8View view{codes.get(), terms};
  sp.rerank_depth = 30;
  const KnnGraph sq8 = graph_search(pool, pts, graph, queries, sp, nullptr,
                                    nullptr, &view);

  std::size_t overlap = 0, total = 0;
  for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
    const auto fr = fp32.row(qi);
    const auto sr = sq8.row(qi);
    for (std::size_t s = 0; s < sq8.row_size(qi); ++s) {
      // Every emitted distance is the exact one.
      EXPECT_EQ(sr[s].dist, kernels::l2_one(queries.row(qi),
                                            pts.row(sr[s].id)));
      ++total;
      for (const Neighbor& nb : fr) {
        if (nb.id == sr[s].id) {
          ++overlap;
          break;
        }
      }
    }
  }
  EXPECT_GT(total, 0u);
  EXPECT_GE(static_cast<double>(overlap) / static_cast<double>(total), 0.95);
}

// Serving a compressed snapshot: the engine scores through the codes and
// answers with the same determinism contract as the uncompressed path.
TEST(Sq8Serve, EngineServesCompressedSnapshot) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(800, 16, 8, 0.2f, 11);
  BuildParams bp;
  bp.k = 8;
  bp.compression = Compression::kSq8;
  const BuildResult r = build_knng(pool, pts, bp);
  ASSERT_NE(r.sq8, nullptr);

  serve::ServeOptions so;
  so.search.k = 8;
  so.search.rerank_depth = 24;
  serve::ServeEngine engine(pool, so,
                            serve::make_snapshot(1, pts, r.graph, r.sq8));
  ASSERT_TRUE(engine.snapshot()->sq8_view().valid());
  EXPECT_EQ(engine.options().search.rerank_depth, 24u);

  std::vector<std::future<serve::QueryResult>> futures;
  for (std::size_t qi = 0; qi < 16; ++qi) {
    std::vector<float> q(pts.row(qi % pts.rows()).begin(),
                         pts.row(qi % pts.rows()).end());
    futures.push_back(engine.submit(std::move(q), 0, /*tag=*/qi));
  }
  std::size_t found_self = 0;
  for (std::size_t qi = 0; qi < futures.size(); ++qi) {
    const serve::QueryResult qr = futures[qi].get();
    ASSERT_EQ(qr.status, serve::QueryStatus::kOk) << qr.error;
    ASSERT_FALSE(qr.neighbors.empty());
    // Exact rerank contract: every emitted distance is the true fp32
    // squared L2, never the compressed approximation.
    for (const Neighbor& nb : qr.neighbors) {
      EXPECT_EQ(nb.dist, kernels::l2_one(pts.row(qi % pts.rows()),
                                         pts.row(nb.id)))
          << "query " << qi;
    }
    if (qr.neighbors.front().id == qi % pts.rows()) {
      EXPECT_EQ(qr.neighbors.front().dist, 0.0f);
      ++found_self;
    }
  }
  // Submitting base points: best-first descent may legitimately terminate
  // before visiting the query point itself, but only rarely.
  EXPECT_GE(found_self, futures.size() - 2);
  engine.stop();

  // With an optimized layout attached the engine serves the SQ8 snapshot
  // through it (no raw-path fallback): answers equal a direct kernel call
  // with the same tags, and the rerank still emits exact fp32 distances.
  const auto laid = serve::with_serving_layout(
      pool, serve::make_snapshot(2, pts, r.graph, r.sq8));
  ASSERT_NE(laid->serving_layout(), nullptr);
  serve::ServeEngine laid_engine(pool, so, laid);
  FloatMatrix queries(16, pts.cols());
  std::vector<std::uint64_t> tags(queries.rows());
  for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
    const auto src = pts.row(3 * qi + 1);
    std::copy(src.begin(), src.end(), queries.row(qi).begin());
    tags[qi] = 100 + qi;
  }
  const kernels::Sq8View view = laid->sq8_view();
  const BatchSearchResult direct = serving_search_batch(
      pool, *laid->serving_layout(), queries, tags, so.search,
      laid->serving_exclusion(), nullptr, nullptr, &view);
  for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
    const auto q = queries.row(qi);
    const serve::QueryResult qr =
        laid_engine.submit({q.begin(), q.end()}, 0, tags[qi]).get();
    ASSERT_EQ(qr.status, serve::QueryStatus::kOk) << qr.error;
    const auto want = direct.results.row(qi);
    ASSERT_EQ(qr.neighbors.size(), direct.results.row_size(qi));
    EXPECT_EQ(qr.points_visited, direct.visits[qi]) << "query " << qi;
    for (std::size_t s = 0; s < qr.neighbors.size(); ++s) {
      EXPECT_EQ(qr.neighbors[s], want[s]) << "query " << qi << " slot " << s;
      EXPECT_EQ(qr.neighbors[s].dist,
                kernels::l2_one(q, pts.row(qr.neighbors[s].id)));
    }
  }
  laid_engine.drain();
  EXPECT_EQ(laid_engine.metrics().optimized_queries.value(), queries.rows());
}

}  // namespace
}  // namespace wknng::core
