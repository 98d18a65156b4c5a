#include "core/tiled_block.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "data/synthetic.hpp"
#include "exact/brute_force.hpp"
#include "kernels/kernels.hpp"
#include "simt/launch.hpp"

namespace wknng::core::detail {
namespace {

class TiledBlockTest : public ::testing::Test {
 protected:
  simt::WarpScratch scratch_;
  simt::Stats stats_;
  simt::Warp warp_{0, scratch_, stats_};
};

TEST_F(TiledBlockTest, ChunkDimsRespectsBudget) {
  // 48 KiB budget, k=10: the two 32-row stages must fit what remains after
  // the 4 KiB block and merge buffer.
  const std::size_t dc = tiled_chunk_dims(48 * 1024, 1024, 10);
  const std::size_t used = 2 * 32 * dc * sizeof(float) +
                           32 * 32 * sizeof(float) + 10 * 8 + 512;
  EXPECT_LE(used, 48u * 1024u);
  EXPECT_GE(dc, 8u);
}

TEST_F(TiledBlockTest, ChunkDimsClampsToDim) {
  EXPECT_EQ(tiled_chunk_dims(48 * 1024, 16, 10), 16u);
}

TEST_F(TiledBlockTest, ChunkDimsThrowsOnTinyScratch) {
  EXPECT_THROW(tiled_chunk_dims(4 * 1024, 128, 10), Error);
}

TEST_F(TiledBlockTest, OffDiagonalPairSubmitsAllPairsBothWays) {
  const std::size_t na = 20, nb = 15, dim = 9;
  const FloatMatrix pts = data::make_uniform(na + nb, dim, 3);
  KnnSetArray sets(na + nb, 40);  // k large enough to keep everything

  const TileBuffers buf = alloc_tile_buffers(warp_, dim, sets.k());
  process_tile_pair(
      warp_, pts, [&](std::size_t i) { return i; }, na,
      [&](std::size_t j) { return na + j; }, nb, /*diagonal=*/false, sets, buf,
      simt::RowScorer(pts));

  ThreadPool pool(1);
  const KnnGraph g = sets.extract(pool);
  // Every A point must now know every B point and vice versa, with exact
  // distances.
  for (std::size_t i = 0; i < na; ++i) {
    ASSERT_EQ(g.row_size(i), nb) << "A point " << i;
    for (const Neighbor& nb_entry : g.row(i).subspan(0, nb)) {
      const float expect = exact::l2_sq(pts.row(i), pts.row(nb_entry.id));
      EXPECT_NEAR(nb_entry.dist, expect, 1e-4f);
      EXPECT_GE(nb_entry.id, na);
    }
  }
  for (std::size_t j = 0; j < nb; ++j) {
    ASSERT_EQ(g.row_size(na + j), na) << "B point " << j;
  }
}

TEST_F(TiledBlockTest, DiagonalPairCoversUpperTriangleBothWays) {
  const std::size_t m = 12, dim = 5;
  const FloatMatrix pts = data::make_uniform(m, dim, 7);
  KnnSetArray sets(m, 16);
  const TileBuffers buf = alloc_tile_buffers(warp_, dim, sets.k());
  process_tile_pair(
      warp_, pts, [&](std::size_t i) { return i; }, m,
      [&](std::size_t j) { return j; }, m, /*diagonal=*/true, sets, buf,
      simt::RowScorer(pts));

  ThreadPool pool(1);
  const KnnGraph g = sets.extract(pool);
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_EQ(g.row_size(i), m - 1) << "point " << i;  // everyone but self
  }
  EXPECT_EQ(stats_.distance_evals, m * (m - 1) / 2);
}

TEST_F(TiledBlockTest, StrictBackendMatchesSerialBitExactly) {
  // On the strict scalar backend the tile kernel must reproduce a plain
  // serial evaluation bit-for-bit — the accumulation order contract that
  // makes WKNNG_KERNEL=scalar builds reproduce pre-dispatch graphs. A small
  // scratch budget (chunked staging plan) must not change that.
  kernels::ScopedBackend strict(kernels::Backend::kScalar);
  const std::size_t dim = 200;
  const FloatMatrix pts = data::make_uniform(4, dim, 11);
  KnnSetArray sets(4, 4);
  simt::WarpScratch small_scratch(
      2 * 32 * 32 * sizeof(float) + 32 * 32 * sizeof(float) + 4 * 8 + 1024);
  simt::Stats stats;
  simt::Warp w(0, small_scratch, stats);
  const TileBuffers buf = alloc_tile_buffers(w, dim, sets.k());
  EXPECT_LT(buf.chunk_dims, dim);  // the staging plan really is chunked
  process_tile_pair(
      w, pts, [&](std::size_t i) { return i; }, 2,
      [&](std::size_t j) { return 2 + j; }, 2, /*diagonal=*/false, sets, buf,
      simt::RowScorer(pts));

  ThreadPool pool(1);
  const KnnGraph g = sets.extract(pool);
  for (std::size_t i = 0; i < 2; ++i) {
    for (const Neighbor& nb : g.row(i).subspan(0, 2)) {
      float serial = 0.0f;
      auto x = pts.row(i);
      auto y = pts.row(nb.id);
      for (std::size_t d = 0; d < dim; ++d) {
        const float diff = x[d] - y[d];
        serial += diff * diff;
      }
      EXPECT_EQ(nb.dist, serial) << "bit-identical accumulation expected";
    }
  }
}

TEST_F(TiledBlockTest, DispatchedBackendMatchesSerialWithinTolerance) {
  // The dispatched (possibly norm-trick) backend must agree with the serial
  // reference to within the documented relative bound, and must agree with
  // its own l2_serial primitive bit-exactly (shared-core contract).
  const std::size_t dim = 200;
  const FloatMatrix pts = data::make_uniform(4, dim, 11);
  KnnSetArray sets(4, 4);
  const TileBuffers buf = alloc_tile_buffers(warp_, dim, sets.k());
  process_tile_pair(
      warp_, pts, [&](std::size_t i) { return i; }, 2,
      [&](std::size_t j) { return 2 + j; }, 2, /*diagonal=*/false, sets, buf,
      simt::RowScorer(pts));

  ThreadPool pool(1);
  const KnnGraph g = sets.extract(pool);
  for (std::size_t i = 0; i < 2; ++i) {
    for (const Neighbor& nb : g.row(i).subspan(0, 2)) {
      auto x = pts.row(i);
      auto y = pts.row(nb.id);
      float serial = 0.0f;
      for (std::size_t d = 0; d < dim; ++d) {
        const float diff = x[d] - y[d];
        serial += diff * diff;
      }
      EXPECT_NEAR(nb.dist, serial, 1e-4f * serial);
      EXPECT_EQ(nb.dist, kernels::l2_serial(x, y))
          << "tile and l2_serial must share one accumulation core";
    }
  }
}

TEST_F(TiledBlockTest, GlobalReadsChargedOncePerTilePair) {
  const std::size_t dim = 32;
  const FloatMatrix pts = data::make_uniform(64, dim, 13);
  KnnSetArray sets(64, 4);
  const TileBuffers buf = alloc_tile_buffers(warp_, dim, sets.k());
  const std::uint64_t before = stats_.global_reads;
  process_tile_pair(
      warp_, pts, [&](std::size_t i) { return i; }, 32,
      [&](std::size_t j) { return 32 + j; }, 32, /*diagonal=*/false, sets, buf,
      simt::RowScorer(pts));
  // Coordinate traffic: 64 rows staged once = 64 * dim * 4 bytes; the rest
  // is k-set traffic (reads of 64 rows' sets during merges).
  const std::uint64_t coord = 64ULL * dim * sizeof(float);
  EXPECT_GE(stats_.global_reads - before, coord);
  EXPECT_LE(stats_.global_reads - before, coord + 64ULL * (4 * 8 + 8) + 4096);
}

}  // namespace
}  // namespace wknng::core::detail
