#include "core/warp_brute_force.hpp"

#include "common/error.hpp"
#include "core/knn_set.hpp"
#include "core/tiled_block.hpp"
#include "kernels/kernels.hpp"
#include "simt/launch.hpp"

namespace wknng::core {

KnnGraph warp_brute_force_knng(ThreadPool& pool, const FloatMatrix& points,
                               std::size_t k, simt::StatsAccumulator* acc,
                               std::size_t scratch_bytes) {
  const std::size_t n = points.rows();
  WKNNG_CHECK_MSG(k > 0 && k < n, "need 0 < k < n; k=" << k << " n=" << n);

  KnnSetArray sets(n, k);
  const std::vector<float> norms = kernels::norm_cache(points);
  const simt::RowScorer scorer(points, norms);
  const std::size_t num_tiles = (n + simt::kWarpSize - 1) / simt::kWarpSize;
  // Enumerate the upper-triangular tile-pair grid (including the diagonal):
  // warp w handles the pair with linear index w.
  const std::size_t num_pairs = num_tiles * (num_tiles + 1) / 2;

  simt::LaunchConfig config;
  config.scratch_bytes = scratch_bytes;
  config.grain = 4;
  config.trace_label = "warp_brute_force";
  simt::launch_warps(pool, num_pairs, config, acc, [&](simt::Warp& w) {
    // Unrank the linear index into (ta, tb) with ta <= tb: row-major over
    // the upper triangle.
    std::size_t idx = w.id();
    std::size_t ta = 0;
    std::size_t row_len = num_tiles;
    while (idx >= row_len) {
      idx -= row_len;
      ++ta;
      --row_len;
    }
    const std::size_t tb = ta + idx;

    const std::size_t a0 = ta * simt::kWarpSize;
    const std::size_t b0 = tb * simt::kWarpSize;
    const std::size_t na = std::min<std::size_t>(simt::kWarpSize, n - a0);
    const std::size_t nb = std::min<std::size_t>(simt::kWarpSize, n - b0);

    const detail::TileBuffers buf =
        detail::alloc_tile_buffers(w, points.cols(), k);
    detail::process_tile_pair(
        w, points, [&](std::size_t i) { return a0 + i; }, na,
        [&](std::size_t j) { return b0 + j; }, nb,
        /*diagonal=*/ta == tb, sets, buf, scorer);
  });

  return sets.extract(pool);
}

}  // namespace wknng::core
