#include "core/refine.hpp"

#include <algorithm>
#include <atomic>

#include "common/error.hpp"
#include "core/leaf_knn.hpp"
#include "simt/cost.hpp"
#include "simt/fault.hpp"
#include "simt/launch.hpp"
#include "simt/packed.hpp"
#include "simt/sort.hpp"
#include "simt/visited.hpp"

namespace wknng::core {

using simt::kWarpSize;
using simt::Lanes;
using simt::Packed;
using simt::Warp;

Adjacency snapshot_adjacency(ThreadPool& pool, const KnnSetArray& sets,
                             std::size_t reverse_cap) {
  const std::size_t n = sets.num_points();
  const std::size_t k = sets.k();
  if (reverse_cap == 0) reverse_cap = k;

  Adjacency adj;
  adj.n = n;
  adj.k = k;
  adj.fwd.assign(n * k, Adjacency::kInvalidId);
  adj.fwd_count.assign(n, 0);

  pool.parallel_for(n, 256, [&](std::size_t p) {
    adj.fwd_count[p] = static_cast<std::uint32_t>(
        sets.snapshot_ids(static_cast<std::uint32_t>(p), adj.fwd.data() + p * k));
  });

  // Reverse edges: count (capped), prefix-sum, fill. Serial counting pass —
  // O(nk), negligible next to the distance work it enables.
  std::vector<std::uint32_t> count(n, 0);
  for (std::size_t p = 0; p < n; ++p) {
    for (std::uint32_t q : adj.forward(static_cast<std::uint32_t>(p))) {
      if (count[q] < reverse_cap) ++count[q];
    }
  }
  adj.rev_offsets.assign(n + 1, 0);
  for (std::size_t p = 0; p < n; ++p) {
    adj.rev_offsets[p + 1] = adj.rev_offsets[p] + count[p];
  }
  adj.rev.assign(adj.rev_offsets[n], 0);
  std::vector<std::uint32_t> cursor(adj.rev_offsets.begin(),
                                    adj.rev_offsets.end() - 1);
  std::vector<std::uint32_t> filled(n, 0);
  for (std::size_t p = 0; p < n; ++p) {
    for (std::uint32_t q : adj.forward(static_cast<std::uint32_t>(p))) {
      if (filled[q] < reverse_cap) {
        adj.rev[cursor[q]++] = static_cast<std::uint32_t>(p);
        ++filled[q];
      }
    }
  }
  return adj;
}

std::span<std::uint32_t> gather_candidates(Warp& w, const Adjacency& adj,
                                           std::uint32_t p,
                                           std::size_t sample_cap) {
  const auto fwd_p = adj.forward(p);
  const auto rev_p = adj.reverse(p);

  // Every base neighbor contributes up to k raw ids, and no id survives the
  // dedup twice; the second half of the buffer is the radix sort's ping-pong.
  const std::size_t base = fwd_p.size() + rev_p.size();
  const std::size_t unique_cap = std::min(base * adj.k, adj.n);
  auto buf = w.scratch().alloc<std::uint32_t>(2 * unique_cap);

  // p and its current forward neighbors are marked first: they are already
  // in p's set, so they never become candidates.
  simt::VisitedBitmap& seen = simt::thread_visited(adj.n);
  seen.mark(p);
  for (std::uint32_t q : fwd_p) seen.mark(q);

  std::size_t raw = 0;
  std::size_t count = 0;
  std::uint32_t max_id = 0;
  auto push_neighbors_of = [&](std::uint32_t q) {
    const auto nq = adj.forward(q);
    for (std::uint32_t r : nq) {
      if (seen.mark(r)) {
        buf[count++] = r;
        max_id = std::max(max_id, r);
      }
    }
    raw += nq.size();
    w.count_read(nq.size() * sizeof(std::uint32_t));
  };
  for (std::uint32_t q : fwd_p) push_neighbors_of(q);
  for (std::uint32_t q : rev_p) push_neighbors_of(q);
  w.count_read((fwd_p.size() + rev_p.size()) * sizeof(std::uint32_t));
  // Per 32-id tile the lanes test-and-set their ids' bits and one ballot
  // compacts the first sightings into the buffer.
  simt::cost::ballot_rounds(w.stats(), raw);

  std::span<std::uint32_t> cands = buf.subspan(0, count);
  seen.unmark(p);
  seen.unmark(fwd_p);
  seen.unmark(cands);

  simt::radix_sort_scratch(w, cands, buf.subspan(count, count), max_id);
  return cands.subspan(0, std::min(count, sample_cap));
}

namespace {

void refine_point_pairwise(Warp& w, const FloatMatrix& points,
                           std::span<const std::uint32_t> cands,
                           std::uint32_t p, Strategy strategy,
                           KnnSetArray& sets, const simt::RowScorer& scorer) {
  const simt::RowScorer::Query q =
      scorer.prepare(w, points.row(p), scorer.alloc_staging(w));
  for (std::uint32_t r : cands) {
    const float dist = scorer.pair(w, q, r);
    sets.insert(w, strategy, p, Packed::make(dist, r));
  }
}

void refine_point_tiled(Warp& w, const FloatMatrix& points,
                        std::span<const std::uint32_t> cands, std::uint32_t p,
                        KnnSetArray& sets, const simt::RowScorer& scorer) {
  const simt::RowScorer::Query q =
      scorer.prepare(w, points.row(p), scorer.alloc_staging(w));
  for (std::size_t t0 = 0; t0 < cands.size(); t0 += kWarpSize) {
    const std::size_t cnt = std::min<std::size_t>(kWarpSize, cands.size() - t0);
    Lanes<std::uint32_t> ids{};
    Lanes<bool> active{};
    for (std::size_t l = 0; l < cnt; ++l) {
      ids[l] = cands[t0 + l];
      active[l] = true;
    }
    const Lanes<float> dists = scorer.lanes(w, q, ids, active);
    Lanes<std::uint64_t> run;
    run.fill(Packed::kEmpty);
    for (std::size_t l = 0; l < cnt; ++l) {
      run[l] = Packed::make(dists[l], ids[l]);
    }
    sets.merge_tile(w, p, run);
  }
}

}  // namespace

std::size_t refine_round(ThreadPool& pool, const FloatMatrix& points,
                         const Adjacency& adj, const BuildParams& params,
                         KnnSetArray& sets, simt::StatsAccumulator* acc,
                         const simt::RowScorer& scorer) {
  const std::size_t n = sets.num_points();
  WKNNG_CHECK(adj.n == n);

  // Per-point recovery: a failed point keeps its current (valid) set for
  // this round; the caller decides whether a skipped point degrades the
  // build. Failures leave no lock held — the lock-timeout site fires before
  // acquisition and scratch is allocated before the critical sections.
  std::atomic<std::size_t> skipped{0};
  const auto guarded = [&skipped](auto&& body) {
    try {
      body();
    } catch (const ScratchOverflowError&) {
      skipped.fetch_add(1, std::memory_order_relaxed);
    } catch (const WarpAbortError&) {
      skipped.fetch_add(1, std::memory_order_relaxed);
    } catch (const LockTimeoutError&) {
      skipped.fetch_add(1, std::memory_order_relaxed);
    }
  };

  // Scratch needs room for the candidate gather plus the tiled kernel's
  // merge buffer. A gather holds at most (max fwd+rev degree) * k ids.
  std::size_t max_rev = 0;
  for (std::size_t p = 0; p < n; ++p) {
    max_rev = std::max<std::size_t>(
        max_rev, adj.rev_offsets[p + 1] - adj.rev_offsets[p]);
  }
  const std::size_t gather_ids = (adj.k + max_rev) * adj.k;
  simt::LaunchConfig config;
  config.scratch_bytes = std::max(
      params.scratch_bytes, gather_ids * sizeof(std::uint32_t) + 4096);
  config.grain = 16;
  config.schedule = params.schedule;

  if (params.refine_mode == RefineMode::kLocalJoin) {
    // Local join: each warp brute-forces its point's combined neighborhood
    // as a bucket. Joined ids include p itself so the pairs (p, q) are also
    // refreshed.
    config.trace_label = "refine_local_join";
    simt::launch_warps(pool, n, config, acc, [&](Warp& w) {
      guarded([&] {
        const auto p = static_cast<std::uint32_t>(w.id());
        const auto fwd = adj.forward(p);
        const auto rev = adj.reverse(p);
        auto join = w.scratch().alloc<std::uint32_t>(fwd.size() + rev.size() + 1);
        std::size_t count = 0;
        join[count++] = p;
        for (std::uint32_t q : fwd) join[count++] = q;
        for (std::uint32_t q : rev) join[count++] = q;
        std::span<std::uint32_t> ids(join.data(), count);
        simt::sort_scratch(w, ids);
        auto end = std::unique(ids.begin(), ids.end());
        const std::size_t unique_count =
            std::min<std::size_t>(end - ids.begin(), params.refine_sample);
        process_bucket(w, points, ids.subspan(0, unique_count), params.strategy,
                       sets, scorer);
      });
    });
    return skipped.load(std::memory_order_relaxed);
  }

  // The expand gather keeps at most min(gather_ids, n) unique ids plus as
  // many for the radix sort's ping-pong half, plus the staged query.
  config.scratch_bytes = std::max(
      params.scratch_bytes,
      2 * std::min(gather_ids, n) * sizeof(std::uint32_t) +
          scorer.staging_floats() * sizeof(float) + 4096);
  config.trace_label = "refine_expand";
  simt::launch_warps(pool, n, config, acc, [&](Warp& w) {
    guarded([&] {
      simt::fault_maybe_throw(simt::FaultSite::kWarpAbort);
      const auto p = static_cast<std::uint32_t>(w.id());
      auto cands = gather_candidates(w, adj, p, params.refine_sample);
      if (cands.empty()) return;
      if (params.strategy == Strategy::kTiled ||
          params.strategy == Strategy::kShared) {
        // kShared refines like kTiled: candidates scored in scratch, one
        // merge per tile — the natural scratch-first discipline.
        refine_point_tiled(w, points, cands, p, sets, scorer);
      } else {
        refine_point_pairwise(w, points, cands, p, params.strategy, sets,
                              scorer);
      }
    });
  });
  return skipped.load(std::memory_order_relaxed);
}

}  // namespace wknng::core
