#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "common/knn_graph.hpp"
#include "common/matrix.hpp"
#include "common/thread_pool.hpp"
#include "core/graph_search.hpp"
#include "obs/slo.hpp"
#include "shard/manager.hpp"

namespace wknng::shard {

/// Query fan-out over a sharded build.
struct RouterParams {
  /// Shards probed per query: the `top_p` nearest by centroid distance.
  /// Clamped to the number of routable (non-quarantined) shards.
  std::size_t top_p = 2;

  /// Per-shard descent knobs. `k` is the per-query result count; each probed
  /// shard returns its own top-k and the router k-way-merges them.
  core::SearchParams search;

  /// Rolling per-query fan-out window (shards actually probed), ticked by a
  /// router-owned monotone query counter — the SLO plane's view of routing
  /// spread. Must outlive the router; null = off.
  obs::WindowedHistogram* fanout_window = nullptr;
};

struct RouteStats {
  std::uint64_t queries = 0;
  std::uint64_t probes = 0;  ///< (query, shard) pairs actually searched
};

/// Serves queries against a ShardBuildResult: scores each query against the
/// shard centroids with the batched L2 kernel, fans out to the `top_p`
/// nearest shards' local graphs, translates local ids back to global ids,
/// and k-way-merges the per-shard candidate lists into one sorted top-k row.
///
/// Deterministic: per-shard searches tag each query with its global batch
/// index (so results are batching-independent, same contract as serving),
/// centroid ties break toward the smaller shard index, and merge ties break
/// by (dist, id). Quarantined shards (empty local graph) are never probed —
/// their points are only reachable through stitched edges in the merged
/// graph, not through the router.
class ShardRouter {
 public:
  /// `build` must outlive the router (bases/graphs/centroids are borrowed).
  ShardRouter(ThreadPool& pool, const ShardBuildResult& build,
              RouterParams params);

  const RouterParams& params() const { return params_; }

  /// Shard indices this router can probe (non-quarantined, non-empty).
  const std::vector<std::uint32_t>& routable() const { return routable_; }

  /// The `top_p` routable shards nearest to `query` (ascending centroid
  /// distance, ties toward smaller shard index).
  std::vector<std::uint32_t> top_shards(std::span<const float> query) const;

  /// One row of global-id neighbors per query row, sorted by (dist, id).
  KnnGraph route_batch(const FloatMatrix& queries,
                       RouteStats* stats = nullptr) const;

 private:
  ThreadPool* pool_;
  const ShardBuildResult* build_;
  RouterParams params_;
  std::vector<std::uint32_t> routable_;
  std::vector<const float*> centroid_rows_;  ///< routable shards only
  /// Monotone tick for the fan-out window: one per routed query, so window
  /// membership depends on route order, never on a clock.
  mutable std::atomic<std::uint64_t> fanout_tick_{0};
  /// Norm cache per routable shard base, built once at construction.
  std::vector<std::vector<float>> norms_;
  mutable core::SearchScratch scratch_;
};

}  // namespace wknng::shard
