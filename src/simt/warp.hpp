#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "simt/race.hpp"
#include "simt/scratch.hpp"
#include "simt/stats.hpp"

namespace wknng::simt {

/// Number of lanes per warp, matching NVIDIA hardware. The value is a
/// compile-time constant throughout.
inline constexpr int kWarpSize = 32;

/// Per-lane register file slice: element l is lane l's private value.
/// Kernels in this repo are written in "lane-array style": instead of 32
/// hardware threads in lockstep, one CPU task owns the whole warp and
/// manipulates Lanes<T> values. There is no intra-warp nondeterminism, so
/// warp-synchronous semantics hold exactly and the kernels are
/// unit-testable.
template <typename T>
using Lanes = std::array<T, kWarpSize>;

/// Execution context for one warp: identity, scratch ("shared memory"
/// partition), and work counters. The warp collectives a CUDA kernel would
/// issue are not executed: the host computes their results natively and
/// charges the modelled cost through simt/cost.hpp into
/// Stats::warp_collectives — the warp-instruction budget the paper's
/// strategies trade against global-memory traffic.
class Warp {
 public:
  Warp(std::uint32_t id, WarpScratch& scratch, Stats& stats)
      : id_(id), scratch_(&scratch), stats_(&stats) {}

  std::uint32_t id() const { return id_; }
  WarpScratch& scratch() { return *scratch_; }
  Stats& stats() { return *stats_; }

  /// Counts `bytes` of global-memory reads (call sites annotate traffic).
  void count_read(std::uint64_t bytes) { stats_->global_reads += bytes; }
  void count_write(std::uint64_t bytes) { stats_->global_writes += bytes; }

  /// Address-aware variants: count the traffic AND feed each cell into the
  /// race detector's shadow state (no-ops beyond the byte count unless a
  /// detector is installed). Use these for block transfers on cells other
  /// warps may touch concurrently.
  template <typename T>
  void record_read(const T* base, std::size_t count) {
    count_read(count * sizeof(T));
    race_on_range(base, sizeof(T), count, AccessKind::kPlainRead);
  }
  template <typename T>
  void record_write(T* base, std::size_t count) {
    count_write(count * sizeof(T));
    race_on_range(base, sizeof(T), count, AccessKind::kPlainWrite);
  }

 private:
  std::uint32_t id_;
  WarpScratch* scratch_;
  Stats* stats_;
};

}  // namespace wknng::simt
