#pragma once

#include <cstdint>
#include <span>

#include "common/knn_graph.hpp"
#include "common/thread_pool.hpp"
#include "core/params.hpp"
#include "simt/memory.hpp"
#include "simt/packed.hpp"
#include "simt/warp.hpp"

namespace wknng::core {

/// The global-memory k-NN sets of all n points, plus the three maintenance
/// strategies that operate on them. This is the heart of the paper: k-NN
/// sets of high-dimensional points do not fit in shared memory, so they live
/// in global memory as n*k packed 64-bit (distance,id) words, and the three
/// strategies differ in how concurrent warps update them.
///
/// Slot-order invariants differ by strategy:
///  * kBasic / kAtomic rows are unordered slot arrays (insertion replaces
///    the current worst slot).
///  * kTiled rows are kept sorted ascending with each id once (merge-based
///    updates).
/// Extraction normalises both into a sorted, deduplicated KnnGraph.
///
/// Every row also has a bound word, an upper bound on the row's worst
/// packed word, which kAtomic reads before it scans the row. Every strategy's
/// insert only lowers a row's worst, so a bound that is stale is only too
/// high and stays valid. Writes that can raise a row's worst (restore,
/// write_row) recompute its bound; a bound below the worst would silently
/// drop true neighbours, which is why no mutable row access is public.
class KnnSetArray {
 public:
  KnnSetArray(std::size_t n, std::size_t k);

  std::size_t num_points() const { return n_; }
  std::size_t k() const { return k_; }

  /// Read-only row access (packed words). Writes go through the strategy
  /// member functions or write_row.
  const std::uint64_t* row(std::size_t p) const { return sets_.data() + p * k_; }

  /// The n bound words, one per row (host-side reads: tests and the race
  /// detector's region labels).
  std::span<const std::uint64_t> bounds() const { return bounds_.span(); }

  /// Overwrites row p with `words` (exactly k) and resets its bound to their
  /// largest word. For a warp that owns row p outright, such as the dynamic
  /// index's row repair, which can raise a row's worst. The caller charges
  /// the row write; the bound store is part of it.
  void write_row(std::uint32_t p, std::span<const std::uint64_t> words);

  // --- Strategy: basic (per-point lock, scan & replace) -------------------

  /// Inserts `cand` into point `dst`'s set under dst's spin lock. The warp
  /// scans the k slots in lane-parallel rounds for (a) a duplicate id and
  /// (b) the worst slot, then overwrites the worst if cand beats it.
  void insert_basic(simt::Warp& w, std::uint32_t dst, std::uint64_t cand);

  // --- Strategy: atomic (lock-free CAS on the worst slot) -----------------

  /// Lock-free insert. Reads dst's bound word first (8 bytes) and returns if
  /// cand is at or above it: the scan would reject cand too. Otherwise
  /// scans (atomic loads) for a duplicate, the worst and the second-worst
  /// slot, then CASes the worst slot; on a lost race, it rereads the bound
  /// and retries. After a successful CAS the row's worst is at most
  /// max(cand, second-worst); if that is below the bound it read, it stores
  /// it with a relaxed store (8 bytes). A store that lands late may raise
  /// the bound, but every stored value was an upper bound when computed and
  /// slot words only fall, so the bound stays valid. cas_retries in the warp
  /// stats measures contention.
  void insert_atomic(simt::Warp& w, std::uint32_t dst, std::uint64_t cand);

  // --- Strategy: tiled (sorted rows, merge of sorted scratch runs) --------

  /// Returns the current worst (k-th best) packed value of dst's set without
  /// synchronisation. The worst value decreases monotonically over a build,
  /// so it is always safe to prune candidates that are >= this bound.
  std::uint64_t peek_worst_sorted(simt::Warp& w, std::uint32_t dst) const;

  /// Submits one tile of 32 packed candidates in lane order (unsorted,
  /// kEmpty padding in any lane) to dst's sorted row. The modelled warp
  /// bitonic-sorts the run, drops non-finite lanes, prunes against the row
  /// bound and merges the survivors; the host charges that network once and
  /// then works bound first: it reads the bound (peek_worst_sorted), returns
  /// when no lane is below it, and otherwise sorts and merges only the lanes
  /// below it under dst's lock. The row is the one the full sort-then-merge
  /// leaves, since the bound only falls: a lane at or above a stale bound can
  /// never enter.
  void merge_tile(simt::Warp& w, std::uint32_t dst,
                  const simt::Lanes<std::uint64_t>& run);

  /// Merges a *sorted ascending* run of 32 packed candidates (kEmpty-padded)
  /// into dst's sorted row, keeping the k best, under dst's lock. A
  /// candidate whose id the row already holds collapses into the smaller of
  /// the two words: two trees submit the same pair, and SQ8's asymmetric
  /// scoring can offer one pair at two distances. No sort is charged.
  /// Scratch is used for the merge buffer.
  void merge_sorted_tile(simt::Warp& w, std::uint32_t dst,
                         const simt::Lanes<std::uint64_t>& sorted_run);

  // --- Uniform entry point -------------------------------------------------

  /// Strategy-dispatched single-candidate insert (used by kernels that do
  /// not batch; kTiled callers should prefer merge_tile).
  void insert(simt::Warp& w, Strategy s, std::uint32_t dst, std::uint64_t cand) {
    switch (s) {
      case Strategy::kBasic: insert_basic(w, dst, cand); return;
      case Strategy::kAtomic: insert_atomic(w, dst, cand); return;
      case Strategy::kTiled: insert_tiled_single(w, dst, cand); return;
      // kShared has no per-candidate *global* insert of its own (its sets
      // live in scratch during the bucket pass and are merged at the end);
      // out-of-kernel callers get the sorted-merge path, which preserves
      // the sorted-row invariant the bucket-end merge relies on.
      case Strategy::kShared: insert_tiled_single(w, dst, cand); return;
    }
  }

  /// Reads the current neighbor ids of point p into `out` (up to k entries,
  /// unsynchronised snapshot); returns the count. Used by the refinement
  /// phase to enumerate adjacency.
  std::size_t snapshot_ids(std::uint32_t p, std::uint32_t* out) const;

  /// True if id is currently present in p's set (unsynchronised; callers use
  /// it as a cheap pre-distance skip, false negatives are harmless).
  bool contains(simt::Warp& w, std::uint32_t p, std::uint32_t id) const;

  /// Normalises all sets into a KnnGraph: per row sort ascending, drop
  /// duplicates by id (keep best), drop empties. Runs on the pool.
  KnnGraph extract(ThreadPool& pool) const;

  /// The whole packed state as one flat span (n*k words) — the image the
  /// checkpoint format serialises. Host-side only.
  std::span<const std::uint64_t> words() const { return sets_.span(); }

  /// Overwrites the packed state from a checkpoint image of exactly n*k
  /// words (throws wknng::Error on size mismatch) and recomputes every
  /// row's bound. Host-side only.
  void restore(std::span<const std::uint64_t> words);

  /// Grows the array to `new_n` points (existing sets and bounds preserved,
  /// new sets empty with kEmpty bounds). Host-side only — must not race
  /// with running kernels. Used by the dynamic index when a batch of rows
  /// is inserted.
  void grow(std::size_t new_n);

  /// Shrinks the array to `new_n` points, keeping rows [0, new_n). Host-side
  /// only. Used by dynamic compaction after live rows were packed down.
  void shrink(std::size_t new_n);

 private:
  std::uint64_t* mutable_row(std::size_t p) { return sets_.data() + p * k_; }

  /// Degenerate single-candidate path for kTiled (wraps the candidate into a
  /// one-element run).
  void insert_tiled_single(simt::Warp& w, std::uint32_t dst, std::uint64_t cand);

  /// The core of both tile submissions: drops non-finite lanes, prunes the
  /// rest against the row bound and merges the survivors under dst's lock,
  /// sorting them first unless the run arrived sorted.
  void submit_run(simt::Warp& w, std::uint32_t dst,
                  const simt::Lanes<std::uint64_t>& run, bool sorted);

  std::size_t n_;
  std::size_t k_;
  simt::DeviceBuffer<std::uint64_t> sets_;
  simt::DeviceBuffer<std::uint64_t> bounds_;
  simt::SpinLockArray locks_;
};

}  // namespace wknng::core
