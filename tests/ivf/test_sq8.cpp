#include "ivf/ivf_sq8.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "data/synthetic.hpp"
#include "exact/brute_force.hpp"
#include "exact/recall.hpp"
#include "kernels/sq8.hpp"

namespace wknng::ivf {
namespace {

TEST(Sq8, ReconstructionErrorBoundedByHalfStep) {
  const FloatMatrix pts = data::make_uniform(200, 10, 3);
  const kernels::Sq8Matrix q = kernels::sq8_encode(pts);
  const FloatMatrix rec = kernels::sq8_decode(q);
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    for (std::size_t d = 0; d < pts.cols(); ++d) {
      EXPECT_LE(std::abs(rec(i, d) - pts(i, d)),
                q.codebook.scale[d] * 0.5f + 1e-6f)
          << "point " << i << " dim " << d;
    }
  }
}

TEST(Sq8, CodesUseTheFullRange) {
  const FloatMatrix pts = data::make_uniform(500, 4, 5);
  const kernels::Sq8Matrix q = kernels::sq8_encode(pts);
  for (std::size_t d = 0; d < 4; ++d) {
    std::uint8_t lo = 255, hi = 0;
    for (std::size_t i = 0; i < q.rows(); ++i) {
      lo = std::min(lo, q.row(i)[d]);
      hi = std::max(hi, q.row(i)[d]);
    }
    EXPECT_EQ(lo, 0);    // the minimum point maps to code 0
    EXPECT_EQ(hi, 255);  // the maximum point maps to code 255
  }
}

TEST(Sq8, ConstantDimensionRoundTripsExactly) {
  FloatMatrix pts(50, 3);
  for (std::size_t i = 0; i < 50; ++i) {
    pts(i, 0) = 7.25f;  // constant dim
    pts(i, 1) = static_cast<float>(i);
    pts(i, 2) = -1.0f * static_cast<float>(i);
  }
  const FloatMatrix rec = kernels::sq8_decode(kernels::sq8_encode(pts));
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_FLOAT_EQ(rec(i, 0), 7.25f);
  }
}

TEST(Sq8, AsymmetricDistanceMatchesDecodedDistance) {
  const FloatMatrix pts = data::make_uniform(60, 8, 7);
  const kernels::Sq8Matrix q = kernels::sq8_encode(pts);
  const FloatMatrix rec = kernels::sq8_decode(q);
  for (std::size_t i = 0; i < 10; ++i) {
    const float asym =
        kernels::sq8_l2_sq_ref(pts.row(i), q.row(i + 20), q.codebook);
    const float decoded = exact::l2_sq(pts.row(i), rec.row(i + 20));
    EXPECT_NEAR(asym, decoded, 1e-3f * (decoded + 1.0f));
  }
}

TEST(Sq8, EncodeRejectsEmptyInput) {
  FloatMatrix empty;
  EXPECT_THROW(kernels::sq8_encode(empty), Error);
}

TEST(IvfSq8, QuartersTheVectorMemory) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_uniform(300, 16, 9);
  IvfParams params;
  params.nlist = 8;
  const IvfSq8Index index = IvfSq8Index::build(pool, pts, params);
  EXPECT_EQ(index.code_bytes(), 300u * 16u);  // 1 byte/dim vs 4 for float
}

TEST(IvfSq8, FullProbeNearlyMatchesExact) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(400, 12, 8, 0.1f, 11);
  IvfParams params;
  params.nlist = 8;
  const IvfSq8Index index = IvfSq8Index::build(pool, pts, params);
  const KnnGraph truth = exact::brute_force_knng(pool, pts, 5);
  const KnnGraph got = index.build_knng(pool, pts, 5, /*nprobe=*/8);
  // Quantization noise costs a little recall even at full probe.
  EXPECT_GT(exact::recall(got, truth), 0.9);
}

TEST(IvfSq8, RescoringRecoversQuantizationLoss) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_uniform(600, 16, 13);
  IvfParams params;
  params.nlist = 8;
  const IvfSq8Index index = IvfSq8Index::build(pool, pts, params);
  const KnnGraph truth = exact::brute_force_knng(pool, pts, 8);
  const double plain =
      exact::recall(index.build_knng(pool, pts, 8, 8, /*rescore=*/0), truth);
  const double rescored =
      exact::recall(index.build_knng(pool, pts, 8, 8, /*rescore=*/64), truth);
  EXPECT_GE(rescored + 1e-9, plain);
  EXPECT_GT(rescored, 0.99);  // full probe + rescoring ~= exact
}

TEST(IvfSq8, RecallGrowsWithNprobe) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(600, 10, 12, 0.1f, 17);
  IvfParams params;
  params.nlist = 16;
  const IvfSq8Index index = IvfSq8Index::build(pool, pts, params);
  const KnnGraph truth = exact::brute_force_knng(pool, pts, 6);
  const double r1 = exact::recall(index.build_knng(pool, pts, 6, 1), truth);
  const double r16 = exact::recall(index.build_knng(pool, pts, 6, 16), truth);
  EXPECT_LT(r1, r16);
}

TEST(IvfSq8, ExcludesSelfAndKeepsInvariants) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_uniform(200, 6, 19);
  IvfParams params;
  params.nlist = 4;
  const IvfSq8Index index = IvfSq8Index::build(pool, pts, params);
  const KnnGraph g = index.build_knng(pool, pts, 4, 4, 16);
  EXPECT_TRUE(g.check_invariants());
  for (std::size_t i = 0; i < 200; ++i) {
    for (const Neighbor& nb : g.row(i)) {
      if (nb.id == KnnGraph::kInvalid) break;
      EXPECT_NE(nb.id, i);
    }
  }
}

TEST(IvfSq8, CostCountersIncludeRescore) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_uniform(300, 8, 23);
  IvfParams params;
  params.nlist = 8;
  const IvfSq8Index index = IvfSq8Index::build(pool, pts, params);
  IvfCost plain, rescored;
  (void)index.build_knng(pool, pts, 5, 4, 0, &plain);
  (void)index.build_knng(pool, pts, 5, 4, 40, &rescored);
  EXPECT_GT(rescored.distance_evals, plain.distance_evals);
}

}  // namespace
}  // namespace wknng::ivf
