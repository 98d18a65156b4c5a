#include "shard/stitch.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "kernels/kernels.hpp"

namespace wknng::shard {

namespace {

bool row_finite(std::span<const float> row) {
  for (const float v : row) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

}  // namespace

bool offer_edge(std::span<Neighbor> row, std::uint32_t self, Neighbor cand) {
  if (cand.id == self || cand.id == KnnGraph::kInvalid) return false;
  if (!std::isfinite(cand.dist)) return false;
  std::size_t valid = 0;
  while (valid < row.size() && row[valid].id != KnnGraph::kInvalid) {
    if (row[valid].id == cand.id) return false;
    ++valid;
  }
  if (valid == row.size() && !(cand < row[valid - 1])) return false;
  // Insertion point in the sorted prefix.
  std::size_t pos = valid;
  while (pos > 0 && cand < row[pos - 1]) --pos;
  const std::size_t last = std::min(valid, row.size() - 1);
  for (std::size_t j = last; j > pos; --j) row[j] = row[j - 1];
  row[pos] = cand;
  return true;
}

StitchStats stitch_graph(ThreadPool& pool, const FloatMatrix& points,
                         const ShardPartition& part,
                         const std::vector<FloatMatrix>& shard_bases,
                         const std::vector<KnnGraph>& shard_graphs,
                         KnnGraph& merged, const StitchParams& params) {
  StitchStats stats;
  const std::size_t shards = part.num_shards();
  if (!params.enabled || shards < 2) return stats;
  WKNNG_CHECK(shard_bases.size() == shards && shard_graphs.size() == shards);

  const std::size_t n = points.rows();
  const std::size_t dim = points.cols();

  // Score every point against every shard centroid (query x L batch shape).
  std::vector<const float*> rows(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    rows[s] = part.centroids.row(s).data();
  }
  std::vector<float> dists(shards);

  // Boundary points grouped by the foreign shard they will search.
  std::vector<std::vector<std::uint32_t>> probes(shards);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = points.row(i);
    if (!row_finite(row)) continue;
    kernels::ops().l2_batch(row.data(), rows.data(), nullptr, shards, dim,
                            dists.data());
    const std::uint32_t owner = part.assignment[i];
    std::size_t second = shards;
    for (std::size_t s = 0; s < shards; ++s) {
      if (s == owner) continue;
      if (second == shards || dists[s] < dists[second]) second = s;
    }
    if (second == shards || shard_graphs[second].num_points() == 0) continue;
    if (static_cast<double>(dists[second]) <=
        params.boundary_ratio * static_cast<double>(dists[owner])) {
      probes[second].push_back(static_cast<std::uint32_t>(i));
      ++stats.boundary_points;
    }
  }

  core::SearchParams sp = params.search;
  sp.k = params.candidates != 0 ? params.candidates : merged.k();
  core::SearchScratch scratch;  // visited marks only: safe across bases

  for (std::size_t t = 0; t < shards; ++t) {
    const std::vector<std::uint32_t>& qs = probes[t];
    if (qs.empty()) continue;
    FloatMatrix queries(qs.size(), dim);
    std::vector<std::uint64_t> tags(qs.size());
    for (std::size_t q = 0; q < qs.size(); ++q) {
      const auto src = points.row(qs[q]);
      std::copy(src.begin(), src.end(), queries.row(q).begin());
      tags[q] = qs[q];
    }
    const core::BatchSearchResult found = core::graph_search_batch(
        pool, shard_bases[t], shard_graphs[t], queries, tags, sp, &scratch);
    const std::vector<std::uint32_t>& locals = part.members[t];
    for (std::size_t q = 0; q < qs.size(); ++q) {
      const std::uint32_t i = qs[q];
      const auto cands = found.results.row(q);
      for (const Neighbor& c : cands) {
        if (c.id == KnnGraph::kInvalid) break;
        const std::uint32_t g = locals[c.id];
        if (offer_edge(merged.row(i), i, {c.dist, g})) ++stats.stitched_edges;
        if (offer_edge(merged.row(g), g, {c.dist, i})) ++stats.stitched_edges;
      }
    }
  }
  return stats;
}

}  // namespace wknng::shard
