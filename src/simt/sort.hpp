#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <type_traits>

#include "common/error.hpp"

#include "simt/cost.hpp"
#include "simt/warp.hpp"

namespace wknng::simt {

/// In-register bitonic sort of one value per lane, ascending across lanes
/// (lane 0 ends with the minimum). The modelled cost is the classic warp
/// network's 15 shuffle stages; the host sorts natively, which yields the
/// same lanes because sorting is deterministic up to equal values.
///
/// The tiled strategy submits its runs through KnnSetArray::merge_tile,
/// which charges the same network but sorts only the lanes the k-NN bound
/// lets through.
template <typename T>
inline void bitonic_sort_lanes(Warp& w, Lanes<T>& v) {
  cost::bitonic_sort(w.stats());
  std::sort(v.begin(), v.end());
}

/// Merges a sorted ascending run (at most 32 values) into a sorted ascending
/// k-element list, keeping the k smallest. `list` is both input and output;
/// `tmp` must have room for list.size() elements. Duplicate values (the same
/// candidate submitted by two trees) collapse to one entry; when dedup
/// shrinks the merged prefix the tail is filled with `pad` (the "empty slot"
/// sentinel, which must compare greater-or-equal to every real value).
///
/// The list is written back with relaxed atomic stores: a k-NN row is read
/// without its lock (KnnSetArray::peek_worst_sorted) while a merge holding
/// the lock rewrites it.
///
/// Modelled cost: cost::merge_path.
template <typename T>
inline void merge_sorted_run(Warp& w, std::span<T> list,
                             std::span<const T> run, std::span<T> tmp, T pad) {
  const std::size_t k = list.size();
  cost::merge_path(w.stats(), k);

  std::size_t li = 0;  // cursor in list
  std::size_t ri = 0;  // cursor in run
  std::size_t out = 0;
  T prev{};
  bool have_prev = false;
  while (out < k && (li < k || ri < run.size())) {
    T next;
    if (li < k && (ri >= run.size() || !(run[ri] < list[li]))) {
      next = list[li++];
    } else {
      next = run[ri++];
    }
    if (have_prev && !(prev < next) && !(next < prev)) continue;  // dedupe equal
    tmp[out++] = next;
    prev = next;
    have_prev = true;
  }
  while (out < k) tmp[out++] = pad;
  for (std::size_t i = 0; i < k; ++i) {
    std::atomic_ref<T>(list[i]).store(tmp[i], std::memory_order_relaxed);
  }
}

/// Warp-cooperative sort of a scratch array (ascending). On hardware this
/// is a bitonic sort over scratch with depth O(log^2 n); the modelled cost
/// charged to the stats is that collective depth, while the simulator
/// executes an ordinary introsort (the result is identical — sorting is
/// deterministic up to equal elements, and all callers sort totally-ordered
/// distinct-or-interchangeable keys).
template <typename T>
inline void sort_scratch(Warp& w, std::span<T> data) {
  cost::scratch_sort(w.stats(), data.size());
  std::sort(data.begin(), data.end());
}

/// Warp-cooperative LSD radix sort of unsigned keys in scratch (ascending),
/// 8-bit digits, with only as many passes as `max_key` (the largest key in
/// `data`) needs. `tmp` must hold data.size() keys; it is the ping-pong
/// buffer of the passes. No key is compared with another, so the cost is
/// linear in the key count. Modelled cost: cost::radix_sort.
template <typename T>
inline void radix_sort_scratch(Warp& w, std::span<T> data, std::span<T> tmp,
                               T max_key) {
  static_assert(std::is_unsigned_v<T>);
  const std::size_t n = data.size();
  if (n < 2) return;
  WKNNG_CHECK(tmp.size() >= n);
  std::size_t passes = 0;
  for (T rest = max_key; rest != 0; rest = static_cast<T>(rest >> 8)) {
    ++passes;
  }
  cost::radix_sort(w.stats(), passes, n);

  T* src = data.data();
  T* dst = tmp.data();
  for (std::size_t pass = 0; pass < passes; ++pass) {
    const unsigned shift = static_cast<unsigned>(8 * pass);
    std::array<std::uint32_t, 256> offset{};
    for (std::size_t i = 0; i < n; ++i) ++offset[(src[i] >> shift) & 0xFF];
    std::uint32_t sum = 0;
    for (std::uint32_t& bin : offset) {
      const std::uint32_t c = bin;
      bin = sum;
      sum += c;
    }
    for (std::size_t i = 0; i < n; ++i) {
      dst[offset[(src[i] >> shift) & 0xFF]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != data.data()) std::copy(src, src + n, data.data());
}

}  // namespace wknng::simt
