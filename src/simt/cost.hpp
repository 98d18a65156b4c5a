#pragma once

#include <cstddef>
#include <cstdint>

#include "simt/stats.hpp"
#include "simt/warp.hpp"

/// The SIMT cost table: every charge to Stats::warp_collectives is made
/// here, named after the CUDA sequence it stands for. The host runs none of
/// these sequences — distances run in src/kernels, sorts and scans run
/// natively — so the counter is what the modelled warp would retire, not
/// what the simulator executed. docs/SUBSTRATE.md keys its cost table to
/// these names.
namespace wknng::simt::cost {

/// 32-lane rounds that cover `n` items.
constexpr std::uint64_t rounds(std::size_t n) {
  return (n + kWarpSize - 1) / kWarpSize;
}

/// log2(32) = 5 butterfly steps (__shfl_xor_sync / __shfl_up_sync): one
/// warp-wide reduce, argmax or scan.
inline constexpr std::uint64_t kShuffleSteps = 5;

/// The 32-lane in-register bitonic network: log2(32)*(log2(32)+1)/2 = 15
/// compare-exchange stages, each one __shfl_xor_sync plus a predicated
/// min/max.
inline constexpr std::uint64_t kBitonicSortCollectives = 15;

/// One 5-step shuffle reduce or argmax.
inline void shuffle_reduce(Stats& s) { s.warp_collectives += kShuffleSteps; }

/// One __ballot_sync per 32-lane round over `n` items.
inline void ballot_rounds(Stats& s, std::size_t n) {
  s.warp_collectives += rounds(n);
}

/// The bitonic network over one 32-lane run.
inline void bitonic_sort(Stats& s) {
  s.warp_collectives += kBitonicSortCollectives;
}

/// The merge path of a 32-run into a k-list: ⌈(k+32)/32⌉ rounds.
inline void merge_path(Stats& s, std::size_t k) {
  s.warp_collectives += rounds(k + kWarpSize);
}

/// A bitonic sort over `n` scratch elements: depth² per 32-element stripe,
/// depth = 1 + ⌈log₂n⌉.
inline void scratch_sort(Stats& s, std::size_t n) {
  std::uint64_t depth = 1;
  for (std::size_t m = 1; m < n; m <<= 1) ++depth;
  s.warp_collectives += depth * depth * rounds(n);
}

/// `passes` 8-bit LSD radix passes over `n` scratch keys. Each pass is a
/// histogram match and a ranked-scatter collective per 32-key tile, plus a
/// 5-step scan of the 256 bins (each lane owns 8).
inline void radix_sort(Stats& s, std::size_t passes, std::size_t n) {
  s.warp_collectives += passes * (2 * rounds(n) + kShuffleSteps);
}

}  // namespace wknng::simt::cost
