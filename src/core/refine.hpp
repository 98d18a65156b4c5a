#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "common/thread_pool.hpp"
#include "core/knn_set.hpp"
#include "core/params.hpp"
#include "simt/stats.hpp"
#include "simt/warp.hpp"
#include "simt/warp_distance.hpp"

namespace wknng::core {

/// Adjacency snapshot taken between refinement rounds: forward edges are the
/// current k-NN sets; reverse edges are their transpose, capped per point so
/// hub points do not blow up candidate generation (the standard NN-Descent
/// sampling discipline).
///
/// The refine loop keeps one Adjacency across rounds and refreshes it in
/// place (refresh_adjacency). Each entry word is an id with the kOld flag in
/// bit 31: the edge is known to have been walked by the previous round's
/// gather. A fresh snapshot has no old entry, so its words are plain ids.
///
/// A forward entry r of p is old iff p's previous row held r and p's
/// previous gather was complete. A reverse entry q of p is old iff p's entry
/// in fwd(q) is old, p's previous reverse list was not cut by the cap and
/// p's previous gather was complete: then q was in that reverse list too.
/// A gather is incomplete when the sample cap truncated it, the point was
/// skipped by a failure, or it dropped a non-finite candidate
/// (mark_incomplete); the point's edges then all count as new next round.
struct Adjacency {
  std::size_t n = 0;
  std::size_t k = 0;
  std::vector<std::uint32_t> fwd;        ///< n * k entry words, kInvalidId padded
  std::vector<std::uint32_t> meta;       ///< per point: forward count | flags
  std::vector<std::uint32_t> rev;        ///< CSR payload (entry words)
  std::vector<std::uint32_t> rev_offsets;///< CSR offsets (n + 1)

  static constexpr std::uint32_t kInvalidId = ~std::uint32_t{0};

  /// Entry flag: the edge was in the previous snapshot (see above).
  static constexpr std::uint32_t kOld = std::uint32_t{1} << 31;
  static std::uint32_t id(std::uint32_t entry) { return entry & ~kOld; }
  static bool old(std::uint32_t entry) { return (entry & kOld) != 0; }

  /// Meta flags. kIncomplete is set during a round by the point's own warp;
  /// the others are set by the refresh.
  static constexpr std::uint32_t kIncomplete = std::uint32_t{1} << 31;
  static constexpr std::uint32_t kRevCapped = std::uint32_t{1} << 30;
  /// The point's reverse entries may be old: its previous reverse list was
  /// complete and so was its previous gather.
  static constexpr std::uint32_t kRevOld = std::uint32_t{1} << 29;
  static constexpr std::uint32_t kCountMask = kRevOld - 1;

  std::span<const std::uint32_t> forward(std::uint32_t p) const {
    return {fwd.data() + static_cast<std::size_t>(p) * k,
            load_meta(p) & kCountMask};
  }
  std::span<const std::uint32_t> reverse(std::uint32_t p) const {
    return {rev.data() + rev_offsets[p], rev.data() + rev_offsets[p + 1]};
  }

  /// Flags p's gather of this round incomplete. Called by p's warp while
  /// other warps read p's forward count, so both sides are atomic.
  void mark_incomplete(std::uint32_t p) {
    std::atomic_ref<std::uint32_t>(meta[p]).fetch_or(
        kIncomplete, std::memory_order_relaxed);
  }
  std::uint32_t load_meta(std::uint32_t p) const {
    return std::atomic_ref<std::uint32_t>(const_cast<std::uint32_t&>(meta[p]))
        .load(std::memory_order_relaxed);
  }
};

/// Refreshes `adj` in place from the current k-NN sets and flags the old
/// entries (see Adjacency). `reverse_cap` limits reverse edges kept per
/// point (0 means k); each reverse list holds its lowest source ids in
/// ascending order. Call it between the rounds of one refine loop: the
/// flags assume `adj` last held the snapshot the previous round gathered
/// from. An `adj` of another shape (or a default one) is reset: every entry
/// is then new. Ids must stay below 2^31.
void refresh_adjacency(ThreadPool& pool, const KnnSetArray& sets,
                       std::size_t reverse_cap, Adjacency& adj);

/// A fresh snapshot of the current k-NN sets: no entry is old.
Adjacency snapshot_adjacency(ThreadPool& pool, const KnnSetArray& sets,
                             std::size_t reverse_cap);

/// A gather's candidates and whether the sample cap truncated it.
struct Candidates {
  std::span<std::uint32_t> ids;
  bool truncated = false;
};

/// The candidate gather of one refine_round point, in warp scratch: the
/// neighbors of p's forward and reverse neighbors, without p, without p's
/// current forward neighbors, without ids p scored last round and without
/// duplicates, in ascending id order. Adjacency ids must be below adj.n.
///
/// An id p scored (or held) last round is one reached through an old p-q
/// entry and then an old q-r entry. Its word has not changed and p's worst
/// word only fell, so scoring it again could not change p's set. The cap
/// truncates the full gather, those ids included, to its lowest `sample_cap`
/// ids (`truncated` when it binds) and only then drops them, so the scored
/// ids are a flag-free gather's minus ids that could not enter p's set.
///
/// Dedup runs on the worker's visited bitmap (simt/visited.hpp): p and its
/// forward neighbors are marked first, then every id reached through two old
/// entries (kept in the radix sort's ping-pong half), and a raw id is kept
/// only on its first mark. Every mark is undone before returning. The unique
/// survivors are then radix-sorted, so the raw list is never
/// comparison-sorted. The order is ascending on purpose: it decides which
/// candidates survive the cap (the lowest ids) and which scored candidate
/// each per-warp fault-injection opportunity lands on. Any other order would
/// change graphs built with a capped sample or under injection.
Candidates gather_candidates(simt::Warp& w, const Adjacency& adj,
                             std::uint32_t p, std::size_t sample_cap);

/// One neighbor-of-neighbor refinement round (expand): one warp per point p
/// gathers the neighbors of p's forward+reverse neighbors
/// (gather_candidates), then scores at most `params.refine_sample`
/// candidates with the strategy's kernel shape and submits them to p's k-NN
/// set.
///
/// Updates flow only into p's own set, so a round is deterministic for the
/// lock-based strategies regardless of warp scheduling.
///
/// Per-point failures (scratch overflow, warp abort, lock timeout — real or
/// injected) are caught inside the warp body: the point keeps its current
/// set for this round and is counted in the return value. Returns the
/// number of points skipped that way (0 on a clean round). A skipped point,
/// a truncated gather and a dropped non-finite candidate mark the point
/// incomplete in `adj` for the next refresh.
///
/// Every candidate is scored by `scorer`, built over `points` or over their
/// SQ8 codes (see leaf_knn_resilient).
std::size_t refine_round(ThreadPool& pool, const FloatMatrix& points,
                         Adjacency& adj, const BuildParams& params,
                         KnnSetArray& sets, simt::StatsAccumulator* acc,
                         const simt::RowScorer& scorer);

}  // namespace wknng::core
