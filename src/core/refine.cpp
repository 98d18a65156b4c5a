#include "core/refine.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/error.hpp"
#include "simt/cost.hpp"
#include "simt/fault.hpp"
#include "simt/launch.hpp"
#include "simt/memory.hpp"
#include "simt/packed.hpp"
#include "simt/sort.hpp"
#include "simt/visited.hpp"

namespace wknng::core {

using simt::kWarpSize;
using simt::Lanes;
using simt::Packed;
using simt::Warp;

void refresh_adjacency(ThreadPool& pool, const KnnSetArray& sets,
                       std::size_t reverse_cap, Adjacency& adj) {
  using A = Adjacency;
  const std::size_t n = sets.num_points();
  const std::size_t k = sets.k();
  WKNNG_CHECK_MSG(n <= A::kOld, "ids must leave bit 31 free, n=" << n);
  WKNNG_CHECK(k <= A::kCountMask);
  if (reverse_cap == 0) reverse_cap = k;
  if (adj.n != n || adj.k != k) {
    // No previous snapshot of this shape: empty previous rows, so every
    // entry is new.
    adj.n = n;
    adj.k = k;
    adj.fwd.assign(n * k, A::kInvalidId);
    adj.meta.assign(n, 0);
  }

  // Source points are split into one contiguous chunk per thread. Each
  // chunk counts its edges into every destination; a prefix over the chunks
  // in id order then gives each chunk its write cursors, so every reverse
  // list holds its sources in ascending order and the cap keeps the lowest.
  const std::size_t chunks = std::max<std::size_t>(
      1, std::min(pool.thread_count(), n));
  const std::size_t chunk_len = (n + chunks - 1) / chunks;
  // Per chunk: n counts (later write cursors), then one previous row.
  std::vector<std::uint32_t> work(chunks * (n + k), 0);
  const auto chunk_points = [&](std::size_t c) {
    return std::pair{c * chunk_len, std::min(n, (c + 1) * chunk_len)};
  };

  // Forward rows, their old flags and the per-chunk in-degrees.
  pool.parallel_for(chunks, 1, [&](std::size_t c) {
    std::uint32_t* count = work.data() + c * n;
    std::uint32_t* prev = work.data() + chunks * n + c * k;
    simt::VisitedBitmap& held = simt::thread_visited(n);
    const auto [begin, end] = chunk_points(c);
    for (std::size_t p = begin; p < end; ++p) {
      std::uint32_t* row = adj.fwd.data() + p * k;
      const std::uint32_t meta = adj.meta[p];
      // An incomplete gather leaves no edge of p old.
      const std::size_t prev_count =
          (meta & A::kIncomplete) != 0 ? 0 : meta & A::kCountMask;
      for (std::size_t i = 0; i < prev_count; ++i) {
        prev[i] = A::id(row[i]);
        held.mark(prev[i]);
      }
      const std::size_t cnt =
          sets.snapshot_ids(static_cast<std::uint32_t>(p), row);
      for (std::size_t i = 0; i < cnt; ++i) {
        ++count[row[i]];
        if (held.test(row[i])) row[i] |= A::kOld;
      }
      std::fill(row + cnt, row + k, A::kInvalidId);
      held.unmark({prev, prev_count});
      const bool rev_old = (meta & (A::kIncomplete | A::kRevCapped)) == 0;
      adj.meta[p] = static_cast<std::uint32_t>(cnt) | (rev_old ? A::kRevOld : 0);
    }
  });

  // Reverse offsets and each chunk's first write position, in id order.
  adj.rev_offsets.resize(n + 1);
  adj.rev_offsets[0] = 0;
  for (std::size_t q = 0; q < n; ++q) {
    std::uint32_t deg = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      std::uint32_t& slot = work[c * n + q];
      const std::uint32_t edges = slot;
      slot = deg;
      deg += edges;
    }
    adj.rev_offsets[q + 1] =
        adj.rev_offsets[q] +
        static_cast<std::uint32_t>(std::min<std::size_t>(deg, reverse_cap));
    if (deg > reverse_cap) adj.meta[q] |= A::kRevCapped;
  }

  adj.rev.resize(adj.rev_offsets[n]);
  pool.parallel_for(chunks, 1, [&](std::size_t c) {
    std::uint32_t* cursor = work.data() + c * n;
    const auto [begin, end] = chunk_points(c);
    for (std::size_t p = begin; p < end; ++p) {
      for (const std::uint32_t e : adj.forward(static_cast<std::uint32_t>(p))) {
        const std::uint32_t q = A::id(e);
        const std::uint32_t pos = cursor[q]++;
        if (pos >= reverse_cap) continue;
        const bool old = A::old(e) && (adj.meta[q] & A::kRevOld) != 0;
        adj.rev[adj.rev_offsets[q] + pos] =
            static_cast<std::uint32_t>(p) | (old ? A::kOld : 0);
      }
    }
  });
}

Adjacency snapshot_adjacency(ThreadPool& pool, const KnnSetArray& sets,
                             std::size_t reverse_cap) {
  Adjacency adj;
  refresh_adjacency(pool, sets, reverse_cap, adj);
  return adj;
}

Candidates gather_candidates(Warp& w, const Adjacency& adj, std::uint32_t p,
                             std::size_t sample_cap) {
  using A = Adjacency;
  const auto fwd_p = adj.forward(p);
  const auto rev_p = adj.reverse(p);
  // Start the loads of the rows both passes walk.
  for (const std::uint32_t e : fwd_p) {
    simt::prefetch(adj.fwd.data() + std::size_t{A::id(e)} * adj.k);
  }
  for (const std::uint32_t e : rev_p) {
    simt::prefetch(adj.fwd.data() + std::size_t{A::id(e)} * adj.k);
  }

  // Every base neighbor contributes up to k raw ids, and no id is first
  // marked twice, so the gathered and the known ids together fit in
  // unique_cap. The second half of the buffer holds the known ids, then
  // serves as the radix sort's ping-pong.
  const std::size_t base = fwd_p.size() + rev_p.size();
  const std::size_t unique_cap = std::min(base * adj.k, adj.n);
  auto buf = w.scratch().alloc<std::uint32_t>(2 * unique_cap);

  // p and its current forward neighbors are marked first: they are already
  // in p's set, so they never become candidates.
  simt::VisitedBitmap& seen = simt::thread_visited(adj.n);
  seen.mark(p);
  for (const std::uint32_t e : fwd_p) seen.mark(A::id(e));

  std::size_t raw = 0;
  const auto read_row = [&](std::size_t ids) {
    raw += ids;
    w.count_read(ids * sizeof(std::uint32_t));
  };

  // First pass: the ids p scored (or held) last round, reached through an
  // old p-q entry and an old q-r entry. Marked, not gathered.
  std::span<std::uint32_t> known = buf.subspan(unique_cap);
  std::size_t num_known = 0;
  std::uint32_t known_max = 0;
  const auto mark_known_via = [&](std::uint32_t e) {
    if (!A::old(e)) return;
    const auto nq = adj.forward(A::id(e));
    for (const std::uint32_t f : nq) {
      if (!A::old(f)) continue;
      const std::uint32_t r = A::id(f);
      known[num_known] = r;
      const bool first = seen.mark(r);
      num_known += first;
      known_max = std::max(known_max, first ? r : 0u);
    }
    read_row(nq.size());
  };
  for (const std::uint32_t e : fwd_p) mark_known_via(e);
  for (const std::uint32_t e : rev_p) mark_known_via(e);

  // Second pass: every id is stored, and kept only on its first mark.
  std::size_t count = 0;
  std::uint32_t max_id = 0;
  const auto push_neighbors_of = [&](std::uint32_t e) {
    const auto nq = adj.forward(A::id(e));
    for (const std::uint32_t f : nq) {
      const std::uint32_t r = A::id(f);
      buf[count] = r;
      const bool first = seen.mark(r);
      count += first;
      max_id = std::max(max_id, first ? r : 0u);
    }
    read_row(nq.size());
  };
  for (const std::uint32_t e : fwd_p) push_neighbors_of(e);
  for (const std::uint32_t e : rev_p) push_neighbors_of(e);
  w.count_read(base * sizeof(std::uint32_t));
  // Per 32-id tile the lanes test-and-set their ids' bits and one ballot
  // compacts the first sightings into the buffer.
  simt::cost::ballot_rounds(w.stats(), raw);

  seen.unmark(p);
  for (const std::uint32_t e : fwd_p) seen.unmark(A::id(e));
  seen.unmark(buf.first(count));
  const std::size_t total = count + num_known;
  if (total <= sample_cap) {
    seen.unmark(known.first(num_known));
    const std::span<std::uint32_t> cands = buf.first(count);
    simt::radix_sort_scratch(w, cands, buf.subspan(count, count), max_id);
    return {cands, false};
  }

  // The cap keeps the lowest ids of the full gather, the known ones
  // included, so they rejoin it for the sort. They are still marked, which
  // tells them apart when the kept prefix drops them.
  std::copy_n(known.begin(), num_known, buf.begin() + count);
  const std::span<std::uint32_t> all = buf.first(total);
  simt::radix_sort_scratch(w, all, buf.subspan(total, total),
                           std::max(max_id, known_max));
  std::size_t kept = 0;
  for (std::size_t i = 0; i < sample_cap; ++i) {
    const std::uint32_t r = all[i];
    const bool was_known = seen.test(r);
    seen.unmark(r);
    buf[kept] = r;
    kept += !was_known;
  }
  seen.unmark(all.subspan(sample_cap));
  return {buf.first(kept), true};
}

namespace {

void refine_point_pairwise(Warp& w, const FloatMatrix& points,
                           std::span<const std::uint32_t> cands,
                           std::uint32_t p, Strategy strategy,
                           KnnSetArray& sets, const simt::RowScorer& scorer) {
  const simt::RowScorer::Query q =
      scorer.prepare(w, points.row(p), scorer.alloc_staging(w));
  // Candidate rows are random reads: start each a few pairs ahead.
  constexpr std::size_t kAhead = 8;
  for (std::size_t i = 0; i < std::min(kAhead, cands.size()); ++i) {
    scorer.prefetch(cands[i]);
  }
  for (std::size_t i = 0; i < cands.size(); ++i) {
    if (i + kAhead < cands.size()) scorer.prefetch(cands[i + kAhead]);
    const std::uint32_t r = cands[i];
    const float dist = scorer.pair(w, q, r);
    sets.insert(w, strategy, p, Packed::make(dist, r));
  }
}

void refine_point_tiled(Warp& w, const FloatMatrix& points,
                        std::span<const std::uint32_t> cands, std::uint32_t p,
                        KnnSetArray& sets, const simt::RowScorer& scorer) {
  const simt::RowScorer::Query q =
      scorer.prepare(w, points.row(p), scorer.alloc_staging(w));
  // Starts the rows of the tile at t0 while the one before it is scored.
  const auto prefetch_tile = [&](std::size_t t0) {
    const std::size_t end = std::min(cands.size(), t0 + kWarpSize);
    for (std::size_t i = t0; i < end; ++i) scorer.prefetch(cands[i]);
  };
  prefetch_tile(0);
  for (std::size_t t0 = 0; t0 < cands.size(); t0 += kWarpSize) {
    prefetch_tile(t0 + kWarpSize);
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

void refine_point(Warp& w, const FloatMatrix& points,
                  std::span<const std::uint32_t> cands, std::uint32_t p,
                  Strategy strategy, KnnSetArray& sets,
                  const simt::RowScorer& scorer) {
  if (strategy == Strategy::kTiled || strategy == Strategy::kShared) {
    // kShared refines like kTiled: candidates scored in scratch, one merge
    // per tile — the natural scratch-first discipline.
    refine_point_tiled(w, points, cands, p, sets, scorer);
  } else {
    refine_point_pairwise(w, points, cands, p, strategy, sets, scorer);
  }
}

}  // namespace

std::size_t refine_round(ThreadPool& pool, const FloatMatrix& points,
                         Adjacency& adj, const BuildParams& params,
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

  // The expand gather keeps at most min(gather_ids, n) unique ids plus as
  // many for the radix sort's ping-pong half, plus the staged query. A
  // gather reaches at most (max fwd+rev degree) * k ids.
  std::size_t max_rev = 0;
  for (std::size_t p = 0; p < n; ++p) {
    max_rev = std::max<std::size_t>(
        max_rev, adj.rev_offsets[p + 1] - adj.rev_offsets[p]);
  }
  const std::size_t gather_ids = (adj.k + max_rev) * adj.k;
  simt::LaunchConfig config;
  config.scratch_bytes = std::max(
      params.scratch_bytes,
      2 * std::min(gather_ids, n) * sizeof(std::uint32_t) +
          scorer.staging_floats() * sizeof(float) + 4096);
  config.grain = 16;
  config.schedule = params.schedule;
  config.trace_label = "refine_expand";
  simt::launch_warps(pool, n, config, acc, [&](Warp& w) {
    const auto p = static_cast<std::uint32_t>(w.id());
    bool complete = false;
    guarded([&] {
      simt::fault_maybe_throw(simt::FaultSite::kWarpAbort);
      const std::uint64_t dropped = w.stats().nonfinite_dropped;
      const Candidates c = gather_candidates(w, adj, p, params.refine_sample);
      if (!c.ids.empty()) {
        refine_point(w, points, c.ids, p, params.strategy, sets, scorer);
      }
      complete = !c.truncated && w.stats().nonfinite_dropped == dropped;
    });
    if (!complete) adj.mark_incomplete(p);
  });
  return skipped.load(std::memory_order_relaxed);
}

}  // namespace wknng::core
