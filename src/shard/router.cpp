#include "shard/router.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "kernels/kernels.hpp"
#include "shard/stitch.hpp"

namespace wknng::shard {

ShardRouter::ShardRouter(ThreadPool& pool, const ShardBuildResult& build,
                         RouterParams params)
    : pool_(&pool), build_(&build), params_(params) {
  WKNNG_CHECK_MSG(params_.top_p > 0, "router top_p must be >= 1");
  WKNNG_CHECK_MSG(params_.search.k > 0, "router k must be >= 1");
  const std::size_t shards = build.partition.num_shards();
  WKNNG_CHECK(build.shard_bases.size() == shards &&
              build.shard_graphs.size() == shards);
  for (std::size_t s = 0; s < shards; ++s) {
    if (build.shard_graphs[s].num_points() == 0) continue;  // quarantined
    routable_.push_back(static_cast<std::uint32_t>(s));
    centroid_rows_.push_back(build.partition.centroids.row(s).data());
    norms_.push_back(kernels::norm_cache(build.shard_bases[s]));
  }
  WKNNG_CHECK_MSG(!routable_.empty(), "no routable shards (all quarantined)");
}

std::vector<std::uint32_t> ShardRouter::top_shards(
    std::span<const float> query) const {
  const std::size_t routable = routable_.size();
  const std::size_t dim = build_->partition.centroids.cols();
  WKNNG_CHECK(query.size() == dim);
  std::vector<float> dists(routable);
  bool finite = true;
  for (const float v : query) {
    if (!std::isfinite(v)) {
      finite = false;
      break;
    }
  }
  if (finite) {
    kernels::ops().l2_batch(query.data(), centroid_rows_.data(), nullptr,
                            routable, dim, dists.data());
  } else {
    std::fill(dists.begin(), dists.end(), 0.0f);  // degenerate: shard order
  }
  std::vector<std::uint32_t> order(routable);
  for (std::size_t r = 0; r < routable; ++r) {
    order[r] = static_cast<std::uint32_t>(r);
  }
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (dists[a] != dists[b]) return dists[a] < dists[b];
              return routable_[a] < routable_[b];
            });
  const std::size_t p = std::min(params_.top_p, routable);
  std::vector<std::uint32_t> out(p);
  for (std::size_t r = 0; r < p; ++r) out[r] = routable_[order[r]];
  return out;
}

KnnGraph ShardRouter::route_batch(const FloatMatrix& queries,
                                  RouteStats* stats) const {
  const std::size_t nq = queries.rows();
  const std::size_t k = params_.search.k;
  KnnGraph out(nq, k);
  if (nq == 0) return out;
  WKNNG_CHECK(queries.cols() == build_->partition.centroids.cols());

  // Fan-out plan: per routable shard, which query rows probe it.
  std::vector<std::vector<std::uint32_t>> plan(routable_.size());
  for (std::size_t q = 0; q < nq; ++q) {
    const std::vector<std::uint32_t> shards = top_shards(queries.row(q));
    if (params_.fanout_window != nullptr) {
      params_.fanout_window->record(
          fanout_tick_.fetch_add(1, std::memory_order_relaxed),
          static_cast<double>(shards.size()));
    }
    for (const std::uint32_t s : shards) {
      // top_shards returns global shard ids; map back to the routable slot.
      const auto it = std::lower_bound(routable_.begin(), routable_.end(), s);
      plan[static_cast<std::size_t>(it - routable_.begin())].push_back(
          static_cast<std::uint32_t>(q));
    }
  }

  // Per-query bounded merge rows (reuse the stitch insert).
  for (std::size_t r = 0; r < routable_.size(); ++r) {
    const std::vector<std::uint32_t>& qs = plan[r];
    if (qs.empty()) continue;
    const std::uint32_t s = routable_[r];
    const std::size_t dim = queries.cols();
    FloatMatrix sub(qs.size(), dim);
    std::vector<std::uint64_t> tags(qs.size());
    for (std::size_t q = 0; q < qs.size(); ++q) {
      const auto src = queries.row(qs[q]);
      std::copy(src.begin(), src.end(), sub.row(q).begin());
      tags[q] = qs[q];  // global batch index: batching-independent results
    }
    const core::BatchSearchResult found = core::search_batch(
        *pool_,
        core::SearchTarget::over_graph(build_->shard_bases[s], norms_[r],
                                       build_->shard_graphs[s]),
        sub, tags, params_.search, &scratch_);
    const std::vector<std::uint32_t>& locals = build_->partition.members[s];
    for (std::size_t q = 0; q < qs.size(); ++q) {
      const auto cands = found.results.row(q);
      const auto dst = out.row(qs[q]);
      for (const Neighbor& c : cands) {
        if (c.id == KnnGraph::kInvalid) break;
        offer_edge(dst, KnnGraph::kInvalid, {c.dist, locals[c.id]});
      }
    }
    if (stats != nullptr) stats->probes += qs.size();
  }
  if (stats != nullptr) stats->queries += nq;
  return out;
}

}  // namespace wknng::shard
