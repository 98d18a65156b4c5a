#include "core/knn_set.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <vector>

#include "common/error.hpp"
#include "simt/cost.hpp"
#include "simt/sort.hpp"

namespace wknng::core {

using simt::Packed;

KnnSetArray::KnnSetArray(std::size_t n, std::size_t k)
    : n_(n),
      k_(k),
      sets_(n * k, Packed::kEmpty),
      bounds_(n, Packed::kEmpty),
      locks_(n) {
  WKNNG_CHECK_MSG(k > 0, "k must be positive");
  WKNNG_CHECK_MSG(n > 0, "n must be positive");
}

namespace {

/// Result of the lane-parallel slot scan every strategy starts with.
struct ScanResult {
  bool duplicate = false;      ///< cand's id already present
  std::size_t worst_slot = 0;  ///< index of the largest packed value
  std::uint64_t worst_value = 0;
  std::uint64_t second_value = 0;  ///< largest value outside worst_slot
};

/// Scans k slots in ceil(k/32) lane-parallel rounds, looking for a duplicate
/// of cand's id, the worst slot and the second-worst value (0 when k is 1).
/// `atomic` selects load discipline.
/// Charges the modelled costs: k*8 bytes of global reads, one ballot per
/// round, one argmax-reduce at the end.
ScanResult scan_slots(simt::Warp& w, const std::uint64_t* slots, std::size_t k,
                      std::uint64_t cand, bool atomic) {
  const std::uint32_t cand_id = Packed::id(cand);
  ScanResult r;

  simt::cost::ballot_rounds(w.stats(), k);  // per-round duplicate ballot
  w.count_read(k * sizeof(std::uint64_t));

  for (std::size_t s = 0; s < k; ++s) {
    const std::uint64_t v =
        atomic ? simt::atomic_load(slots[s]) : simt::plain_load(slots[s]);
    if (!Packed::is_empty(v) && Packed::id(v) == cand_id) {
      r.duplicate = true;
      return r;
    }
    if (s == 0 || v > r.worst_value) {
      r.second_value = r.worst_value;
      r.worst_value = v;
      r.worst_slot = s;
    } else if (v > r.second_value) {
      r.second_value = v;
    }
  }
  simt::cost::shuffle_reduce(w.stats());  // argmax reduction
  return r;
}

/// One pair can reach a sorted row at two distances (SQ8 scoring is
/// asymmetric: the leaf tile offers d(a, decode(b)) to both a and b,
/// refinement offers d(p, decode(r))), and the row keeps each id once, at
/// its smaller word. A survivor whose id the row holds at a larger word
/// takes that slot and moves down to its sorted place, so no slot's word
/// rises and the k-th slot stays a falling bound; one whose id the row
/// holds at a word no larger is dropped. The rest, whose ids are new to the
/// row, are compacted in order to the front of `survivors`; returns their
/// count. The caller holds the row's lock (readers only peek at it).
std::size_t resolve_known_ids(std::span<std::uint64_t> row,
                              std::span<std::uint64_t> survivors) {
  const auto store = [](std::uint64_t& slot, std::uint64_t v) {
    std::atomic_ref<std::uint64_t>(slot).store(v, std::memory_order_relaxed);
  };
  // The row is sorted, so its kEmpty slots are a suffix. A 256-bit filter
  // of its ids spares most new ids the scan.
  const std::size_t filled = static_cast<std::size_t>(
      std::lower_bound(row.begin(), row.end(), Packed::kEmpty) - row.begin());
  std::array<std::uint64_t, 4> filter{};
  const auto bit = [](std::uint32_t id) { return std::uint64_t{1} << (id & 63); };
  for (std::size_t m = 0; m < filled; ++m) {
    const std::uint32_t id = Packed::id(row[m]);
    filter[(id >> 6) & 3] |= bit(id);
  }
  std::size_t fresh = 0;
  for (const std::uint64_t s : survivors) {
    const std::uint32_t id = Packed::id(s);
    std::size_t at = filled;
    if ((filter[(id >> 6) & 3] & bit(id)) != 0) {
      for (std::size_t m = 0; m < filled; ++m) {
        if (Packed::id(row[m]) == id) at = m;
      }
    }
    if (at == filled) {
      survivors[fresh++] = s;
      continue;
    }
    if (row[at] <= s) continue;
    for (; at > 0 && s < row[at - 1]; --at) store(row[at], row[at - 1]);
    store(row[at], s);
  }
  return fresh;
}

}  // namespace

void KnnSetArray::insert_basic(simt::Warp& w, std::uint32_t dst,
                               std::uint64_t cand) {
  if (!Packed::is_finite(cand)) {
    ++w.stats().nonfinite_dropped;
    return;
  }
  locks_.acquire(dst, w.stats());
  std::uint64_t* slots = mutable_row(dst);
  const ScanResult scan = scan_slots(w, slots, k_, cand, /*atomic=*/false);
  if (!scan.duplicate && cand < scan.worst_value) {
    simt::plain_store(slots[scan.worst_slot], cand);
    w.count_write(sizeof(std::uint64_t));
  }
  locks_.release(dst);
}

void KnnSetArray::insert_atomic(simt::Warp& w, std::uint32_t dst,
                                std::uint64_t cand) {
  if (!Packed::is_finite(cand)) {
    ++w.stats().nonfinite_dropped;
    return;
  }
  std::uint64_t* slots = mutable_row(dst);
  std::uint64_t& bound_word = bounds_[dst];
  while (true) {
    // The bound is at least the row's worst, so a candidate at or above it
    // is one the scan would reject too.
    w.count_read(sizeof(std::uint64_t));
    const std::uint64_t bound = simt::atomic_load(bound_word);
    if (cand >= bound) return;
    const ScanResult scan = scan_slots(w, slots, k_, cand, /*atomic=*/true);
    if (scan.duplicate) return;
    if (cand >= scan.worst_value) return;  // not better than the current worst
    std::uint64_t expected = scan.worst_value;
    if (simt::atomic_cas(slots[scan.worst_slot], expected, cand, w.stats())) {
      w.count_write(sizeof(std::uint64_t));
      // The other slots only fell since the scan read them, so the row's
      // worst is now at most this.
      const std::uint64_t worst = std::max(cand, scan.second_value);
      if (worst < bound) {
        simt::atomic_store(bound_word, worst);
        w.count_write(sizeof(std::uint64_t));
      }
      return;
    }
    // Lost the race: the slot changed under us; rescan and retry.
  }
}

std::uint64_t KnnSetArray::peek_worst_sorted(simt::Warp& w,
                                             std::uint32_t dst) const {
  w.count_read(sizeof(std::uint64_t));
  return simt::atomic_load(row(dst)[k_ - 1]);
}

void KnnSetArray::merge_tile(simt::Warp& w, std::uint32_t dst,
                             const simt::Lanes<std::uint64_t>& run) {
  simt::cost::bitonic_sort(w.stats());
  submit_run(w, dst, run, /*sorted=*/false);
}

void KnnSetArray::merge_sorted_tile(simt::Warp& w, std::uint32_t dst,
                                    const simt::Lanes<std::uint64_t>& sorted_run) {
  submit_run(w, dst, sorted_run, /*sorted=*/true);
}

void KnnSetArray::submit_run(simt::Warp& w, std::uint32_t dst,
                             const simt::Lanes<std::uint64_t>& run,
                             bool sorted) {
  // Non-finite (corrupted) distances pack to bit patterns that sort after
  // every valid candidate and before the kEmpty padding; they are counted
  // and never admitted into the set.
  simt::Lanes<std::uint64_t> keep;
  std::size_t count = 0;
  for (const std::uint64_t v : run) {
    if (Packed::is_finite(v)) {
      keep[count++] = v;
    } else if (!Packed::is_empty(v)) {
      ++w.stats().nonfinite_dropped;
    }
  }

  // Monotonic-bound prune: the k-th best only ever improves, so a candidate
  // that fails against the current worst can never be admitted later.
  const std::uint64_t bound = peek_worst_sorted(w, dst);
  std::size_t below = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (keep[i] < bound) keep[below++] = keep[i];
  }
  if (below == 0) return;
  const std::span<std::uint64_t> survivors(keep.data(), below);
  if (!sorted) std::sort(survivors.begin(), survivors.end());

  const std::size_t mark = w.scratch().mark();
  auto tmp = w.scratch().alloc<std::uint64_t>(k_);
  locks_.acquire(dst, w.stats());
  std::span<std::uint64_t> list(mutable_row(dst), k_);
  w.record_read(list.data(), k_);
  const std::size_t fresh = resolve_known_ids(list, survivors);
  simt::merge_sorted_run<std::uint64_t>(w, list, survivors.first(fresh), tmp,
                                        Packed::kEmpty);
  w.record_write(list.data(), k_);
  locks_.release(dst);
  w.scratch().release(mark);
}

void KnnSetArray::insert_tiled_single(simt::Warp& w, std::uint32_t dst,
                                      std::uint64_t cand) {
  simt::Lanes<std::uint64_t> run;
  run.fill(Packed::kEmpty);
  run[0] = cand;
  merge_sorted_tile(w, dst, run);
}

std::size_t KnnSetArray::snapshot_ids(std::uint32_t p, std::uint32_t* out) const {
  const std::uint64_t* slots = row(p);
  std::size_t count = 0;
  for (std::size_t s = 0; s < k_; ++s) {
    const std::uint64_t v = simt::atomic_load(slots[s]);
    if (!Packed::is_empty(v)) out[count++] = Packed::id(v);
  }
  return count;
}

bool KnnSetArray::contains(simt::Warp& w, std::uint32_t p,
                           std::uint32_t id) const {
  const std::uint64_t* slots = row(p);
  w.count_read(k_ * sizeof(std::uint64_t));
  simt::cost::ballot_rounds(w.stats(), k_);
  for (std::size_t s = 0; s < k_; ++s) {
    const std::uint64_t v = simt::atomic_load(slots[s]);
    if (!Packed::is_empty(v) && Packed::id(v) == id) return true;
  }
  return false;
}

void KnnSetArray::restore(std::span<const std::uint64_t> words) {
  WKNNG_CHECK_MSG(words.size() == n_ * k_,
                  "checkpoint state has " << words.size() << " words, expected "
                                          << n_ * k_);
  std::copy(words.begin(), words.end(), sets_.data());
  for (std::size_t p = 0; p < n_; ++p) {
    bounds_[p] = *std::max_element(row(p), row(p) + k_);
  }
}

void KnnSetArray::write_row(std::uint32_t p,
                            std::span<const std::uint64_t> words) {
  WKNNG_CHECK_MSG(words.size() == k_,
                  "row has " << words.size() << " words, expected " << k_);
  std::copy(words.begin(), words.end(), mutable_row(p));
  bounds_[p] = *std::max_element(words.begin(), words.end());
}

void KnnSetArray::grow(std::size_t new_n) {
  WKNNG_CHECK_MSG(new_n >= n_, "grow cannot shrink: " << new_n << " < " << n_);
  if (new_n == n_) return;
  sets_.resize_preserving(new_n * k_, Packed::kEmpty);
  bounds_.resize_preserving(new_n, Packed::kEmpty);
  locks_.assign(new_n);  // all locks idle by precondition
  n_ = new_n;
}

void KnnSetArray::shrink(std::size_t new_n) {
  WKNNG_CHECK_MSG(new_n <= n_, "shrink cannot grow: " << new_n << " > " << n_);
  if (new_n == n_) return;
  sets_.resize_preserving(new_n * k_, Packed::kEmpty);
  bounds_.resize_preserving(new_n);
  locks_.assign(new_n);  // all locks idle by precondition
  n_ = new_n;
}

KnnGraph KnnSetArray::extract(ThreadPool& pool) const {
  KnnGraph g(n_, k_);
  pool.parallel_for(n_, 64, [&](std::size_t p) {
    std::vector<std::uint64_t> vals(row(p), row(p) + k_);
    std::sort(vals.begin(), vals.end());
    auto out = g.row(p);
    std::size_t count = 0;
    for (const std::uint64_t v : vals) {
      if (Packed::is_empty(v)) break;
      if (!Packed::is_finite(v)) continue;  // never emit a corrupt distance
      const std::uint32_t id = Packed::id(v);
      bool dup = false;
      for (std::size_t j = 0; j < count; ++j) {
        if (out[j].id == id) {
          dup = true;  // racing duplicate insert (atomic strategy): keep best
          break;
        }
      }
      if (dup || id == p) continue;
      out[count++] = Neighbor{Packed::dist(v), id};
    }
  });
  return g;
}

}  // namespace wknng::core
