#include "core/graph_search.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/topk.hpp"
#include "core/params.hpp"
#include "kernels/kernels.hpp"
#include "simt/launch.hpp"
#include "simt/memory.hpp"
#include "simt/warp_distance.hpp"

namespace wknng::core {

using simt::kWarpSize;
using simt::Lanes;
using simt::RowScorer;
using simt::Warp;

namespace {

/// Soft capacity of the frontier heap: generous enough that eviction is rare
/// (evictable elements are the ones the descent could never expand anyway),
/// small enough that a slot's storage stays cache-resident.
std::size_t frontier_capacity(const SearchParams& params) {
  return std::max<std::size_t>(2 * (params.beam + kWarpSize), 128);
}

}  // namespace

void validate_search_params(const SearchParams& params) {
  if (params.k == 0) {
    throw SearchParamError("SearchParams: k must be positive");
  }
  if (params.entry_sample == 0) {
    throw SearchParamError(
        "SearchParams: entry_sample must be positive — with no scored entry "
        "sample the descent has no seeds and every query would come back "
        "empty");
  }
}

SearchScratch::Slot& SearchScratch::local() {
  const std::thread::id tid = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Slot>& slot = slots_[tid];
  if (!slot) slot = std::make_unique<Slot>();
  return *slot;
}

SearchTarget SearchTarget::over_graph(const FloatMatrix& base,
                                      std::span<const float> norms,
                                      const KnnGraph& graph,
                                      kernels::Sq8View sq8,
                                      std::span<const std::uint8_t> exclude) {
  SearchTarget t;
  t.base = &base;
  t.norms = norms;
  t.graph = &graph;
  t.sq8 = sq8;
  t.exclude = exclude;
  return t;
}

SearchTarget SearchTarget::over_layout(const opt::ServingGraph& sg,
                                       std::span<const std::uint8_t> exclude,
                                       kernels::Sq8View sq8) {
  SearchTarget t;
  t.base = &sg.base;
  t.norms = sg.norms;
  t.csr_offsets = sg.offsets;
  t.csr_neighbors = sg.neighbors;
  t.old_to_new = sg.old_to_new;
  t.new_to_old = sg.new_to_old;
  t.sq8 = sq8;
  t.exclude = !exclude.empty() ? exclude
                               : std::span<const std::uint8_t>(sg.exclude);
  return t;
}

BatchSearchResult search_batch(ThreadPool& pool, const SearchTarget& t,
                               const FloatMatrix& queries,
                               std::span<const std::uint64_t> tags,
                               const SearchParams& params,
                               SearchScratch* scratch,
                               simt::StatsAccumulator* acc) {
  WKNNG_CHECK_MSG(t.base != nullptr, "search target has no base rows");
  const FloatMatrix& base = *t.base;
  const std::size_t n = base.rows();
  const std::size_t dim = base.cols();
  WKNNG_CHECK_MSG(dim == queries.cols(),
                  "base dim " << dim << " != query dim " << queries.cols());
  if (t.graph != nullptr) {
    WKNNG_CHECK(t.graph->num_points() == n);
  } else {
    WKNNG_CHECK_MSG(t.csr_offsets.size() == n + 1 &&
                        t.csr_offsets.back() == t.csr_neighbors.size(),
                    "CSR adjacency malformed");
  }
  WKNNG_CHECK_MSG(t.norms.empty() || t.norms.size() == n,
                  "norm cache size " << t.norms.size() << " != base " << n);
  const bool permuted = !t.new_to_old.empty();
  WKNNG_CHECK_MSG(t.old_to_new.size() == t.new_to_old.size() &&
                      (!permuted || t.new_to_old.size() == n),
                  "permutation size " << t.new_to_old.size() << " != base "
                                      << n);
  WKNNG_CHECK_MSG(t.exclude.empty() || t.exclude.size() == n,
                  "exclusion mask size " << t.exclude.size() << " != base "
                                         << n);
  validate_search_params(params);
  const bool use_sq8 = t.sq8.valid();
  if (use_sq8) {
    WKNNG_CHECK_MSG(t.sq8.matrix->rows() == n && t.sq8.matrix->dim() == dim,
                    "sq8 codes are " << t.sq8.matrix->rows() << "x"
                        << t.sq8.matrix->dim() << ", base is " << n << "x"
                        << dim);
  }
  WKNNG_CHECK_MSG(tags.empty() || tags.size() == queries.rows(),
                  "tags size " << tags.size() << " != queries "
                               << queries.rows());
  const std::size_t nq = queries.rows();

  BatchSearchResult out;
  out.results = KnnGraph(nq, params.k);
  out.visits.assign(nq, 0);
  out.capped.assign(nq, 0);
  if (nq == 0 || n == 0) return out;  // nothing to search; no launch

  // Degenerate-parameter clamps (see header): results never exceed the base,
  // and the entry heap never outgrows the sample feeding it. entry_sample is
  // known positive — admission validation rejected zero.
  const std::size_t k_eff = std::min(params.k, n);
  const std::size_t entry_keep = std::max<std::size_t>(
      1, std::min(params.entry_keep, params.entry_sample));
  // Compressed path: how many sq8-ranked survivors get the exact rescore.
  // Zero on the uncompressed path, so the result-heap size is untouched.
  const std::size_t rr_eff =
      use_sq8 ? std::min(effective_rerank_depth(k_eff, params.rerank_depth), n)
              : 0;
  const std::size_t frontier_cap = frontier_capacity(params);
  // Row prefetch pays only when a row spans several cache lines (16 floats
  // per 64-byte line); narrower rows arrive with their own load.
  const bool prefetch_rows = dim > 16;

  // Base id -> source id (the code rows' order, and what callers see).
  auto source_id = [&](std::uint32_t id) {
    return permuted ? t.new_to_old[id] : id;
  };
  // The approximate scorer reads the codes when compressed, the fp32 base
  // rows otherwise; the exact scorer always reads the base rows.
  const RowScorer exact(base, t.norms);
  std::optional<RowScorer> codes;
  if (use_sq8) codes.emplace(*t.sq8.matrix, t.sq8.terms);
  const RowScorer& approx = codes ? *codes : exact;
  // Code rows stay in source order; base rows may be permuted.
  auto scorer_id = [&](const RowScorer& s, std::uint32_t id) {
    return s.sq8() ? source_id(id) : id;
  };
  auto adjacency_row = [&](std::uint32_t id) -> const void* {
    return t.graph != nullptr
               ? static_cast<const void*>(t.graph->row(id).data())
               : static_cast<const void*>(t.csr_neighbors.data() +
                                          t.csr_offsets[id]);
  };

  SearchScratch local_scratch;
  SearchScratch& scr = scratch != nullptr ? *scratch : local_scratch;

  simt::LaunchConfig search_config;
  search_config.trace_label = "graph_search";
  simt::launch_warps(pool, nq, search_config, acc, [&](Warp& w) {
    const std::size_t qi = w.id();
    const std::uint64_t tag = tags.empty() ? qi : tags[qi];
    const auto query = queries.row(qi);
    Rng rng(params.seed, 0x5EA5C000ULL + tag);

    SearchScratch::Slot& slot = scr.local();
    slot.begin(n);
    // Tombstone check: one byte load on candidate admission; an empty mask
    // compiles down to the constant-false branch.
    const bool has_exclude = !t.exclude.empty();
    auto is_excluded = [&](std::uint32_t id) {
      return has_exclude && t.exclude[id] != 0;
    };
    std::uint64_t visits = 0;
    bool capped = false;
    FrontierHeap frontier(slot.frontier, frontier_cap);
    // The compressed path widens the result heap to the rerank depth so the
    // exact rescore has a pool to re-order (rr_eff is 0 otherwise).
    TopK best(std::max(std::max(k_eff, params.beam), rr_eff));

    // The exact query is the fp32 row itself; the compressed path prepares
    // its query once per warp (one fp32 row read), after which every
    // candidate streams 1 byte/dim of code data.
    const RowScorer::Query exact_q = exact.prepare(w, query, {});
    slot.qprep.resize(approx.staging_floats());
    const RowScorer::Query approx_q = approx.prepare(w, query, slot.qprep);

    // Scores one warp-tile ids[0, cnt) (base ids) with `s`.
    auto score_tile = [&](const std::uint32_t* ids, std::size_t cnt,
                          const RowScorer& s, const RowScorer::Query& q) {
      Lanes<std::uint32_t> lane_ids{};
      Lanes<bool> active{};
      for (std::size_t l = 0; l < cnt; ++l) {
        lane_ids[l] = scorer_id(s, ids[l]);
        active[l] = true;
      }
      return s.lanes(w, q, lane_ids, active);
    };
    // Starts the rows the approximate scorer will read for ids[t0, t0 + one
    // tile).
    auto prefetch_tile = [&](const std::vector<std::uint32_t>& ids,
                             std::size_t t0) {
      if (!prefetch_rows) return;
      const std::size_t end = std::min(ids.size(), t0 + kWarpSize);
      for (std::size_t i = t0; i < end; ++i) {
        approx.prefetch(scorer_id(approx, ids[i]));
      }
    };

    // Entry scoring: entries are drawn in the source id space, so a
    // permuted layout seeds from the same points as its source graph.
    std::vector<std::uint32_t>& sample = slot.sample;
    sample.clear();
    for (std::size_t e = 0; e < params.entry_sample && sample.size() < n; ++e) {
      const auto src = static_cast<std::uint32_t>(rng.next_below(n));
      const std::uint32_t id = permuted ? t.old_to_new[src] : src;
      if (slot.test_and_set(id)) continue;
      sample.push_back(id);
    }
    TopK entries(entry_keep);
    for (std::size_t t0 = 0; t0 < sample.size(); t0 += kWarpSize) {
      const std::size_t cnt =
          std::min<std::size_t>(kWarpSize, sample.size() - t0);
      const Lanes<float> d =
          score_tile(sample.data() + t0, cnt, approx, approx_q);
      for (std::size_t l = 0; l < cnt; ++l) entries.push(d[l], sample[t0 + l]);
    }
    visits += sample.size();
    for (const Neighbor& e : entries.take_sorted()) {
      frontier.push(e, best.worst());  // excluded entries still navigate
      if (!is_excluded(e.id)) best.push(e.dist, e.id);
    }

    // Best-first descent.
    std::vector<std::uint32_t>& expand = slot.expand;
    std::size_t stale_hops = 0;  // hops since the result heap last improved
    while (!frontier.empty()) {
      const Neighbor cur = frontier.pop();
      if (cur.dist > best.worst()) break;
      if (params.visit_budget != 0 && visits >= params.visit_budget) {
        capped = true;  // the frontier still held a useful candidate
        break;
      }
      // The heap's new head is the likely next expansion: start its
      // adjacency row toward the cache while this hop streams.
      if (!frontier.empty()) simt::prefetch(adjacency_row(frontier.top().id));
      expand.clear();
      if (t.graph != nullptr) {
        for (const Neighbor& nb : t.graph->row(cur.id)) {
          if (nb.id == KnnGraph::kInvalid) break;
          if (!slot.test_and_set(nb.id)) expand.push_back(nb.id);
        }
        w.count_read(t.graph->k() * sizeof(Neighbor));
      } else {
        const std::uint32_t begin = t.csr_offsets[cur.id];
        const std::uint32_t end = t.csr_offsets[cur.id + 1];
        for (std::uint32_t e = begin; e < end; ++e) {
          const std::uint32_t nb = t.csr_neighbors[e];
          if (!slot.test_and_set(nb)) expand.push_back(nb);
        }
        w.count_read((end - begin) * sizeof(std::uint32_t));
      }
      prefetch_tile(expand, 0);
      bool improved = false;
      for (std::size_t t0 = 0; t0 < expand.size(); t0 += kWarpSize) {
        prefetch_tile(expand, t0 + kWarpSize);
        const std::size_t cnt =
            std::min<std::size_t>(kWarpSize, expand.size() - t0);
        const Lanes<float> d =
            score_tile(expand.data() + t0, cnt, approx, approx_q);
        for (std::size_t l = 0; l < cnt; ++l) {
          const std::uint32_t id = expand[t0 + l];
          if (d[l] < best.worst()) {
            frontier.push({d[l], id}, best.worst());
            if (!is_excluded(id)) {
              best.push(d[l], id);
              improved = true;
            }
          }
        }
        visits += cnt;
      }
      if (params.patience != 0) {
        stale_hops = improved ? 0 : stale_hops + 1;
        if (stale_hops >= params.patience) break;
      }
    }

    auto found = best.take_sorted();
    if (use_sq8) {
      // Exact rerank: rescore the top rr_eff sq8-ranked survivors against the
      // fp32 base rows so the emitted top-k carries exact distances in exact
      // order. Approximation error only matters below the rerank horizon.
      if (found.size() > rr_eff) found.resize(rr_eff);
      expand.clear();
      for (const Neighbor& nb : found) expand.push_back(nb.id);
      TopK rescored(k_eff);
      for (std::size_t t0 = 0; t0 < expand.size(); t0 += kWarpSize) {
        const std::size_t cnt =
            std::min<std::size_t>(kWarpSize, expand.size() - t0);
        const Lanes<float> d =
            score_tile(expand.data() + t0, cnt, exact, exact_q);
        for (std::size_t l = 0; l < cnt; ++l) {
          rescored.push(d[l], expand[t0 + l]);
        }
        visits += cnt;
      }
      found = rescored.take_sorted();
    }
    if (found.size() > k_eff) found.resize(k_eff);
    if (permuted) {
      // Back to the source id space. The remap can reorder equal-distance
      // ties, so re-establish the row invariant (sorted by (dist, id)).
      for (Neighbor& nb : found) nb.id = t.new_to_old[nb.id];
      std::sort(found.begin(), found.end());
    }
    auto row = out.results.row(qi);
    std::copy(found.begin(), found.end(), row.begin());
    out.visits[qi] = visits;  // this warp's slot only: no shared accumulator
    out.capped[qi] = capped ? 1 : 0;
  });

  return out;
}

BatchSearchResult graph_search_batch(ThreadPool& pool, const FloatMatrix& base,
                                     const KnnGraph& graph,
                                     const FloatMatrix& queries,
                                     std::span<const std::uint64_t> tags,
                                     const SearchParams& params,
                                     SearchScratch* scratch,
                                     simt::StatsAccumulator* acc,
                                     const kernels::Sq8View* sq8,
                                     std::span<const std::uint8_t> exclude) {
  const std::vector<float> norms = kernels::norm_cache(base);
  return search_batch(
      pool,
      SearchTarget::over_graph(base, norms, graph,
                               sq8 != nullptr ? *sq8 : kernels::Sq8View{},
                               exclude),
      queries, tags, params, scratch, acc);
}

BatchSearchResult serving_search_batch(ThreadPool& pool,
                                       const opt::ServingGraph& sg,
                                       const FloatMatrix& queries,
                                       std::span<const std::uint64_t> tags,
                                       const SearchParams& params,
                                       std::span<const std::uint8_t> exclude,
                                       SearchScratch* scratch,
                                       simt::StatsAccumulator* acc,
                                       const kernels::Sq8View* sq8) {
  return search_batch(
      pool,
      SearchTarget::over_layout(sg, exclude,
                                sq8 != nullptr ? *sq8 : kernels::Sq8View{}),
      queries, tags, params, scratch, acc);
}

KnnGraph graph_search(ThreadPool& pool, const FloatMatrix& base,
                      const KnnGraph& graph, const FloatMatrix& queries,
                      const SearchParams& params, SearchStats* stats,
                      simt::StatsAccumulator* acc,
                      const kernels::Sq8View* sq8) {
  BatchSearchResult batch = graph_search_batch(pool, base, graph, queries, {},
                                               params, nullptr, acc, sq8);
  if (stats != nullptr) {
    // Sequential index-order merge: the total is identical for every pool
    // size and schedule, unlike a racing shared counter.
    for (const std::uint64_t v : batch.visits) stats->points_visited += v;
    stats->queries += queries.rows();
  }
  return std::move(batch.results);
}

}  // namespace wknng::core
