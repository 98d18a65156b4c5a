#include "simt/warp_distance.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "exact/brute_force.hpp"
#include "kernels/kernels.hpp"
#include "kernels/sq8.hpp"
#include "simt/fault.hpp"
#include "simt/scratch.hpp"

namespace wknng::simt {
namespace {

FloatMatrix random_points(std::size_t n, std::size_t dim, std::uint64_t seed) {
  FloatMatrix m(n, dim);
  Rng rng(seed);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = rng.next_float() * 2.0f - 1.0f;
  }
  return m;
}

// --- fp32 rows ---------------------------------------------------------------

class DistanceTest : public ::testing::Test {
 protected:
  /// Distance from row `from` of `pts` to row `to`, pair shape.
  float pair(const FloatMatrix& pts, std::uint32_t from, std::uint32_t to) {
    const RowScorer scorer(pts);
    return scorer.pair(warp_, scorer.prepare(warp_, pts.row(from), {}), to);
  }

  /// Row `from` of `pts` against the active lanes' rows, lanes shape.
  Lanes<float> lanes(const FloatMatrix& pts, std::uint32_t from,
                     const Lanes<std::uint32_t>& ids,
                     const Lanes<bool>& active) {
    const RowScorer scorer(pts);
    return scorer.lanes(warp_, scorer.prepare(warp_, pts.row(from), {}), ids,
                        active);
  }

  WarpScratch scratch_;
  Stats stats_;
  Warp warp_{0, scratch_, stats_};
};

TEST_F(DistanceTest, DimsParallelMatchesScalarReference) {
  for (std::size_t dim : std::vector<std::size_t>{1, 3, 31, 32, 33, 64, 100, 257}) {
    FloatMatrix pts = random_points(2, dim, dim);
    const float got = pair(pts, 0, 1);
    const float expect = exact::l2_sq(pts.row(0), pts.row(1));
    EXPECT_NEAR(got, expect, 1e-4f * (expect + 1.0f)) << "dim=" << dim;
  }
}

TEST_F(DistanceTest, DimsParallelZeroDistanceForIdenticalPoints) {
  FloatMatrix pts = random_points(1, 77, 3);
  EXPECT_EQ(pair(pts, 0, 0), 0.0f);
}

TEST_F(DistanceTest, DimsParallelCountsWork) {
  FloatMatrix pts = random_points(2, 64, 5);
  const Stats before = stats_;
  (void)pair(pts, 0, 1);
  EXPECT_EQ(stats_.distance_evals - before.distance_evals, 1u);
  EXPECT_EQ(stats_.global_reads - before.global_reads, 2u * 64u * 4u);
  EXPECT_GT(stats_.flops, before.flops);
}

TEST_F(DistanceTest, BatchMatchesScalarReference) {
  const std::size_t dim = 48;
  FloatMatrix pts = random_points(40, dim, 7);
  auto q = pts.row(0);

  Lanes<std::uint32_t> ids{};
  Lanes<bool> active{};
  for (int l = 0; l < kWarpSize; ++l) {
    ids[l] = static_cast<std::uint32_t>(l + 1);
    active[l] = true;
  }
  const Lanes<float> d = lanes(pts, 0, ids, active);
  for (int l = 0; l < kWarpSize; ++l) {
    const float expect = exact::l2_sq(q, pts.row(ids[l]));
    EXPECT_NEAR(d[l], expect, 1e-4f * (expect + 1.0f)) << "lane " << l;
  }
}

TEST_F(DistanceTest, BatchRespectsActiveMask) {
  FloatMatrix pts = random_points(5, 16, 9);
  Lanes<std::uint32_t> ids{};
  Lanes<bool> active{};
  ids[0] = 1;
  active[0] = true;  // only lane 0 active
  const Stats before = stats_;
  const Lanes<float> d = lanes(pts, 0, ids, active);
  EXPECT_GT(d[0], 0.0f);
  for (int l = 1; l < kWarpSize; ++l) EXPECT_EQ(d[l], 0.0f);
  EXPECT_EQ(stats_.distance_evals - before.distance_evals, 1u);
}

TEST_F(DistanceTest, BatchChargesNoBytesWhenNoLaneIsActive) {
  // A fully inactive mask means the warp never touched memory: neither the
  // candidate rows nor the scratch-resident query row may be charged (the
  // query-row byte charge used to leak here, inflating tab3's bytes/eval).
  FloatMatrix pts = random_points(5, 16, 9);
  Lanes<std::uint32_t> ids{};
  Lanes<bool> active{};  // all lanes inactive
  const Stats before = stats_;
  const Lanes<float> d = lanes(pts, 0, ids, active);
  for (int l = 0; l < kWarpSize; ++l) EXPECT_EQ(d[l], 0.0f);
  EXPECT_EQ(stats_.distance_evals, before.distance_evals);
  EXPECT_EQ(stats_.global_reads, before.global_reads);
  EXPECT_EQ(stats_.flops, before.flops);
}

TEST_F(DistanceTest, BatchChargesQueryRowOncePerActiveCall) {
  // With L active lanes the charge is (L + 1) rows: L candidate rows plus
  // the query row, read once into scratch.
  const std::size_t dim = 16;
  FloatMatrix pts = random_points(5, dim, 9);
  Lanes<std::uint32_t> ids{};
  Lanes<bool> active{};
  ids[0] = 1;
  ids[1] = 2;
  active[0] = active[1] = true;
  const Stats before = stats_;
  (void)lanes(pts, 0, ids, active);
  EXPECT_EQ(stats_.global_reads - before.global_reads,
            3u * dim * sizeof(float));
}

TEST_F(DistanceTest, BatchAndDimsParallelAgree) {
  // The two kernel shapes accumulate in different orders under the strict
  // backend; their results must agree to float tolerance (ScorerTest pins
  // the bit-level contract per backend).
  const std::size_t dim = 96;
  FloatMatrix pts = random_points(3, dim, 11);
  const float a = pair(pts, 0, 1);
  Lanes<std::uint32_t> ids{};
  Lanes<bool> active{};
  ids[0] = 1;
  active[0] = true;
  const Lanes<float> b = lanes(pts, 0, ids, active);
  EXPECT_NEAR(a, b[0], 1e-4f * (a + 1.0f));
}

// --- Both scorer kinds -------------------------------------------------------
// The accounting contract of every shape, for fp32 rows and SQ8 code rows.

enum class Kind { kFp32, kSq8 };

class ScorerTest : public ::testing::TestWithParam<Kind> {
 protected:
  static constexpr std::size_t kDim = 48;

  ScorerTest()
      : pts_(random_points(40, kDim, 21)), codes_(kernels::sq8_encode(pts_)) {}

  bool sq8() const { return GetParam() == Kind::kSq8; }

  /// A scorer of the test's kind, its cache built under the active backend.
  std::unique_ptr<RowScorer> make_scorer() {
    if (sq8()) {
      cache_ = kernels::sq8_term_cache(codes_);
      return std::make_unique<RowScorer>(codes_, cache_);
    }
    cache_ = kernels::norm_cache(pts_);
    return std::make_unique<RowScorer>(pts_, cache_);
  }

  /// Global bytes of one scored row: 1 B/dim for a code row, 4 for fp32.
  std::uint64_t row_bytes() const {
    return kDim * (sq8() ? sizeof(std::uint8_t) : sizeof(float));
  }

  static constexpr std::uint64_t kQueryBytes = kDim * sizeof(float);

  FloatMatrix pts_;
  kernels::Sq8Matrix codes_;
  std::vector<float> cache_;
  std::vector<float> staging_;
  WarpScratch scratch_;
  Stats stats_;
  Warp warp_{0, scratch_, stats_};
};

TEST_P(ScorerTest, StagingMatchesKind) {
  const auto scorer = make_scorer();
  EXPECT_EQ(scorer->sq8(), sq8());
  EXPECT_EQ(scorer->dim(), kDim);
  EXPECT_EQ(scorer->staging_floats(), sq8() ? kDim : 0u);
  const std::size_t used = scratch_.used();
  EXPECT_EQ(scorer->alloc_staging(warp_).size(), scorer->staging_floats());
  // No staging, no allocation: an fp32 scorer never meets the scratch-alloc
  // fault site.
  EXPECT_EQ(scratch_.used() > used, sq8());
  EXPECT_EQ(scorer->row_bytes(3).size(), row_bytes());
}

TEST_P(ScorerTest, PrepareChargesTheQueryOnce) {
  const auto scorer = make_scorer();
  staging_.resize(scorer->staging_floats());
  const Stats before = stats_;
  const RowScorer::Query q = scorer->prepare(warp_, pts_.row(0), staging_);
  // SQ8 reads the fp32 query once, here; fp32 prepares for free.
  EXPECT_EQ(stats_.global_reads - before.global_reads,
            sq8() ? kQueryBytes : 0u);
  EXPECT_EQ(stats_.flops - before.flops, sq8() ? 3 * kDim : 0u);
  EXPECT_EQ(stats_.distance_evals, before.distance_evals);

  // Three pairs: SQ8 streams only the code rows; fp32 re-reads the query
  // with every pair.
  const Stats mid = stats_;
  for (std::uint32_t id = 1; id <= 3; ++id) (void)scorer->pair(warp_, q, id);
  const std::uint64_t per_pair = row_bytes() + (sq8() ? 0 : kQueryBytes);
  EXPECT_EQ(stats_.global_reads - mid.global_reads, 3 * per_pair);
  EXPECT_EQ(stats_.distance_evals - mid.distance_evals, 3u);
  EXPECT_EQ(stats_.warp_collectives - mid.warp_collectives, 3u * 5u);
  EXPECT_EQ(stats_.flops - mid.flops,
            3 * ((sq8() ? 4 : 3) * kDim + kWarpSize));
}

TEST_P(ScorerTest, LanesChargeOneRowPerActiveLane) {
  const auto scorer = make_scorer();
  staging_.resize(scorer->staging_floats());
  const RowScorer::Query q = scorer->prepare(warp_, pts_.row(0), staging_);
  Lanes<std::uint32_t> ids{};
  Lanes<bool> active{};
  for (int l = 0; l < 5; ++l) {
    ids[2 * l] = static_cast<std::uint32_t>(l + 1);
    active[2 * l] = true;
  }
  const Stats before = stats_;
  const Lanes<float> d = scorer->lanes(warp_, q, ids, active);
  // Code rows cost 1 B/dim (the prepared query was charged at prepare);
  // fp32 rows cost 4 B/dim plus one read of the query per call.
  EXPECT_EQ(stats_.global_reads - before.global_reads,
            5 * row_bytes() + (sq8() ? 0 : kQueryBytes));
  EXPECT_EQ(stats_.distance_evals - before.distance_evals, 5u);
  EXPECT_EQ(stats_.flops - before.flops, 5 * (sq8() ? 4 : 3) * kDim);
  for (int l = 0; l < kWarpSize; ++l) {
    if (!active[l]) EXPECT_EQ(d[l], 0.0f) << "lane " << l;
  }
}

TEST_P(ScorerTest, AllInactiveMaskChargesNothing) {
  const auto scorer = make_scorer();
  staging_.resize(scorer->staging_floats());
  const RowScorer::Query q = scorer->prepare(warp_, pts_.row(0), staging_);
  const Stats before = stats_;
  const Lanes<float> d =
      scorer->lanes(warp_, q, Lanes<std::uint32_t>{}, Lanes<bool>{});
  for (int l = 0; l < kWarpSize; ++l) EXPECT_EQ(d[l], 0.0f);
  EXPECT_EQ(stats_.distance_evals, before.distance_evals);
  EXPECT_EQ(stats_.global_reads, before.global_reads);
  EXPECT_EQ(stats_.flops, before.flops);
  EXPECT_EQ(stats_.warp_collectives, before.warp_collectives);
}

TEST_P(ScorerTest, PairAndLanesAgreeBitForBitWithinABackend) {
  // The SIMD backends score every shape from one shared core, and the
  // strict SQ8 rows share one serial form. Only the strict fp32 pair keeps
  // the modeled warp's lane-strided order, so it agrees to tolerance.
  for (int b = 0; b < static_cast<int>(kernels::kNumBackends); ++b) {
    const auto backend = static_cast<kernels::Backend>(b);
    if (kernels::ops_for(backend) == nullptr) continue;
    const kernels::ScopedBackend scope(backend);
    const auto scorer = make_scorer();
    staging_.resize(scorer->staging_floats());
    const RowScorer::Query q = scorer->prepare(warp_, pts_.row(0), staging_);
    Lanes<std::uint32_t> ids{};
    Lanes<bool> active{};
    for (int l = 0; l < kWarpSize; ++l) {
      ids[l] = static_cast<std::uint32_t>(l + 1);
      active[l] = true;
    }
    const Lanes<float> d = scorer->lanes(warp_, q, ids, active);
    const bool bitwise = sq8() || backend != kernels::Backend::kScalar;
    for (int l = 0; l < kWarpSize; ++l) {
      const float p = scorer->pair(warp_, q, ids[l]);
      if (bitwise) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(p),
                  std::bit_cast<std::uint32_t>(d[l]))
            << kernels::backend_name(backend) << " lane " << l;
      } else {
        EXPECT_NEAR(p, d[l], 1e-4f * (p + 1.0f)) << "lane " << l;
      }
    }
  }
}

TEST_P(ScorerTest, CorruptDistanceFiresOncePerProducedDistance) {
  const auto scorer = make_scorer();
  staging_.resize(scorer->staging_floats());
  FaultInjector injector(fault_spec_from_string("corrupt-distance:3:1"));
  const ScopedFaultInjection scope(injector);
  const RowScorer::Query q = scorer->prepare(warp_, pts_.row(0), staging_);
  EXPECT_EQ(injector.injected(), 0u);

  EXPECT_TRUE(std::isnan(scorer->pair(warp_, q, 1)));
  EXPECT_EQ(injector.injected(), 1u);

  Lanes<std::uint32_t> ids{};
  Lanes<bool> active{};
  for (int l = 0; l < 7; ++l) {
    ids[l] = static_cast<std::uint32_t>(l + 2);
    active[l] = true;
  }
  const Lanes<float> d = scorer->lanes(warp_, q, ids, active);
  EXPECT_EQ(injector.injected(), 8u);
  for (int l = 0; l < 7; ++l) EXPECT_TRUE(std::isnan(d[l])) << "lane " << l;

  (void)scorer->lanes(warp_, q, ids, Lanes<bool>{});
  EXPECT_EQ(injector.injected(), 8u);

  // The tile leaves the hook to the caller's run assembly.
  std::vector<float> block(kWarpSize * kWarpSize);
  scorer->tile(
      warp_, pts_, [](std::size_t i) { return i; }, 4,
      [](std::size_t j) { return 4 + j; }, 4, /*diagonal=*/false, block);
  EXPECT_EQ(injector.injected(), 8u);
}

TEST_P(ScorerTest, TileChargesBothSidesOnce) {
  const auto scorer = make_scorer();
  std::vector<float> block(kWarpSize * kWarpSize);
  const Stats before = stats_;
  scorer->tile(
      warp_, pts_, [](std::size_t i) { return i; }, 6,
      [](std::size_t j) { return 6 + j; }, 5, /*diagonal=*/false, block);
  // A side at full precision (SQ8 prepares it), B side at the row width.
  EXPECT_EQ(stats_.global_reads - before.global_reads,
            6 * kQueryBytes + 5 * row_bytes());
  EXPECT_EQ(stats_.distance_evals - before.distance_evals, 30u);
  EXPECT_EQ(stats_.flops - before.flops,
            (sq8() ? 3 * kDim * 6 : 0) + 30 * (sq8() ? 4 : 3) * kDim);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      const float expect =
          sq8() ? kernels::sq8_l2_sq_ref(pts_.row(i), codes_.row(6 + j),
                                         codes_.codebook)
                : exact::l2_sq(pts_.row(i), pts_.row(6 + j));
      EXPECT_NEAR(block[i * kWarpSize + j], expect, 1e-4f * (expect + 1.0f))
          << i << "," << j;
    }
  }

  // Diagonal: na * (na - 1) / 2 pairs; an fp32 B side aliases the A rows.
  const Stats mid = stats_;
  scorer->tile(
      warp_, pts_, [](std::size_t i) { return i; }, 6,
      [](std::size_t j) { return j; }, 6, /*diagonal=*/true, block);
  EXPECT_EQ(stats_.global_reads - mid.global_reads,
            6 * kQueryBytes + (sq8() ? 6 * row_bytes() : 0));
  EXPECT_EQ(stats_.distance_evals - mid.distance_evals, 15u);
}

INSTANTIATE_TEST_SUITE_P(BothKinds, ScorerTest,
                         ::testing::Values(Kind::kFp32, Kind::kSq8),
                         [](const ::testing::TestParamInfo<Kind>& info) {
                           return std::string(info.param == Kind::kSq8
                                                  ? "sq8"
                                                  : "fp32");
                         });

}  // namespace
}  // namespace wknng::simt
