#include "opt/optimize.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "common/topk.hpp"
#include "kernels/kernels.hpp"
#include "simt/launch.hpp"
#include "simt/warp_distance.hpp"

namespace wknng::opt {

using simt::kWarpSize;
using simt::Warp;

namespace {

/// Phase 1 — occlusion pruning, one warp per row. Candidates are scanned in
/// ascending-distance order (the row invariant); a candidate q is dropped
/// when an already-kept closer neighbor r occludes it: d(p,r) < d(p,q) and
/// d(q,r) < d(p,q) — q is reachable through r in two short hops, so the
/// direct edge buys expansion cost without navigability (the
/// relative-neighborhood rule GRNND's RNN-Descent applies during
/// construction). The keep-floor then re-admits the nearest dropped
/// candidates until `min_degree` edges survive.
///
/// Every row is pruned independently from read-only inputs, so the result is
/// bit-identical across pool sizes and schedules for a given kernel backend.
void prune_rows(ThreadPool& pool, const FloatMatrix& base,
                const KnnGraph& graph, std::size_t min_degree,
                std::vector<std::uint32_t>& kept_flat,
                std::vector<std::uint32_t>& kept_count,
                simt::StatsAccumulator* acc) {
  const std::size_t n = graph.num_points();
  const std::size_t k = graph.k();
  kept_flat.assign(n * k, KnnGraph::kInvalid);
  kept_count.assign(n, 0);

  const simt::RowScorer scorer(base);
  simt::LaunchConfig cfg;
  cfg.grain = 32;  // rows are cheap; amortize the scheduling step
  cfg.trace_label = "opt_prune";
  simt::launch_warps(pool, n, cfg, acc, [&](Warp& w) {
    const auto p = static_cast<std::uint32_t>(w.id());
    const auto row = graph.row(p);
    std::vector<Neighbor> kept;
    std::vector<Neighbor> dropped;
    kept.reserve(k);
    for (const Neighbor& nb : row) {
      if (nb.id == KnnGraph::kInvalid) break;
      bool occluded = false;
      const simt::RowScorer::Query q = scorer.prepare(w, base.row(nb.id), {});
      for (const Neighbor& r : kept) {
        if (!(r.dist < nb.dist)) continue;  // rule needs a strictly closer r
        if (scorer.pair(w, q, r.id) < nb.dist) {
          occluded = true;
          break;
        }
      }
      (occluded ? dropped : kept).push_back(nb);
    }
    // Keep-floor: the nearest dropped candidates come back, closest first,
    // until the row has min_degree edges (or none are left to re-admit).
    for (const Neighbor& d : dropped) {
      if (kept.size() >= min_degree) break;
      kept.push_back(d);
    }
    std::sort(kept.begin(), kept.end());  // restore ascending (dist, id)
    for (std::size_t i = 0; i < kept.size(); ++i) {
      kept_flat[p * k + i] = kept[i].id;
    }
    kept_count[p] = static_cast<std::uint32_t>(kept.size());
  });
}

/// Phase 2 — BFS ordering over the pruned adjacency: start from the highest
/// in-degree row (the hub most descents funnel through; ties to the lowest
/// id), walk breadth-first appending neighbors in row order, and restart at
/// the next unvisited hub when a component is exhausted. Rows a descent
/// visits together end up adjacent, so their vectors and CSR rows share
/// cache lines after the gather.
std::vector<std::uint32_t> bfs_order(const std::vector<std::uint32_t>& kept_flat,
                                     const std::vector<std::uint32_t>& kept_count,
                                     std::size_t n, std::size_t k) {
  std::vector<std::uint32_t> in_degree(n, 0);
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t i = 0; i < kept_count[p]; ++i) {
      ++in_degree[kept_flat[p * k + i]];
    }
  }
  std::vector<std::uint32_t> seeds(n);
  std::iota(seeds.begin(), seeds.end(), 0);
  std::sort(seeds.begin(), seeds.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (in_degree[a] != in_degree[b]) {
                return in_degree[a] > in_degree[b];
              }
              return a < b;
            });

  std::vector<std::uint32_t> order;
  order.reserve(n);
  std::vector<std::uint8_t> enqueued(n, 0);
  std::size_t head = 0;  // order doubles as the BFS queue
  for (const std::uint32_t seed : seeds) {
    if (enqueued[seed]) continue;
    enqueued[seed] = 1;
    order.push_back(seed);
    while (head < order.size()) {
      const std::uint32_t u = order[head++];
      for (std::size_t i = 0; i < kept_count[u]; ++i) {
        const std::uint32_t v = kept_flat[u * k + i];
        if (enqueued[v]) continue;
        enqueued[v] = 1;
        order.push_back(v);
      }
    }
  }
  return order;  // new id -> old id
}

}  // namespace

ServingGraph optimize_serving(ThreadPool& pool, const FloatMatrix& base,
                              const KnnGraph& graph,
                              const OptimizeOptions& options,
                              std::span<const std::uint8_t> tombstones,
                              std::uint64_t source_version,
                              simt::StatsAccumulator* acc) {
  WKNNG_CHECK_MSG(graph.num_points() == base.rows(),
                  "graph has " << graph.num_points() << " rows, base "
                               << base.rows());
  WKNNG_CHECK_MSG(tombstones.empty() || tombstones.size() == base.rows(),
                  "tombstone mask size " << tombstones.size() << " != base "
                                         << base.rows());
  const std::size_t n = base.rows();
  const std::size_t k = graph.k();

  ServingGraph sg;
  sg.dim = base.cols();
  sg.source_k = k;
  sg.source_version = source_version;
  sg.min_degree = options.min_degree;
  sg.pruned = options.prune;
  sg.reordered = options.reorder;
  if (n == 0) {
    sg.offsets.assign(1, 0);
    sg.base = FloatMatrix(0, base.cols());
    return sg;
  }

  // Phase 1: per-row edge selection (or a straight copy when pruning is
  // off — the relayout below still applies).
  std::vector<std::uint32_t> kept_flat;
  std::vector<std::uint32_t> kept_count;
  if (options.prune) {
    prune_rows(pool, base, graph, options.min_degree, kept_flat, kept_count,
               acc);
  } else {
    kept_flat.assign(n * k, KnnGraph::kInvalid);
    kept_count.assign(n, 0);
    for (std::size_t p = 0; p < n; ++p) {
      const std::size_t width = graph.row_size(p);
      const auto row = graph.row(p);
      for (std::size_t i = 0; i < width; ++i) {
        kept_flat[p * k + i] = row[i].id;
      }
      kept_count[p] = static_cast<std::uint32_t>(width);
    }
  }
  for (std::size_t p = 0; p < n; ++p) {
    sg.edges_before += graph.row_size(p);
    sg.edges_after += kept_count[p];
  }

  // Phase 2: the row permutation.
  if (options.reorder) {
    sg.new_to_old = bfs_order(kept_flat, kept_count, n, k);
  } else {
    sg.new_to_old.resize(n);
    std::iota(sg.new_to_old.begin(), sg.new_to_old.end(), 0);
  }
  sg.old_to_new.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    sg.old_to_new[sg.new_to_old[i]] = i;
  }

  // Phase 3: CSR packing in the new id space (edge order inside a row is
  // preserved — ascending source-graph distance) and the gathers.
  sg.offsets.resize(n + 1);
  sg.offsets[0] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sg.offsets[i + 1] = sg.offsets[i] + kept_count[sg.new_to_old[i]];
  }
  sg.neighbors.resize(sg.offsets[n]);
  sg.base = FloatMatrix(n, base.cols());
  if (!tombstones.empty()) sg.exclude.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t old_id = sg.new_to_old[i];
    std::uint32_t* dst = sg.neighbors.data() + sg.offsets[i];
    for (std::size_t e = 0; e < kept_count[old_id]; ++e) {
      dst[e] = sg.old_to_new[kept_flat[old_id * k + e]];
    }
    const auto src = base.row(old_id);
    std::copy(src.begin(), src.end(), sg.base.row(i).begin());
    if (!tombstones.empty()) sg.exclude[i] = tombstones[old_id];
  }
  sg.norms = kernels::norm_cache(sg.base);
  return sg;
}

}  // namespace wknng::opt
