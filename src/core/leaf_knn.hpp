#pragma once

#include "common/matrix.hpp"
#include "common/thread_pool.hpp"
#include "core/knn_set.hpp"
#include "core/params.hpp"
#include "core/rp_forest.hpp"
#include "simt/stats.hpp"
#include "simt/warp_distance.hpp"

namespace wknng::core {

/// What the resilient leaf pass had to do beyond the happy path.
struct LeafReport {
  std::size_t buckets_retried = 0;   ///< bucket executions re-launched
  std::size_t buckets_failed = 0;    ///< still failed after every retry
  std::size_t buckets_degraded = 0;  ///< kShared buckets re-run as kTiled
  std::size_t launches_retried = 0;  ///< whole launches retried (alloc fail)
};

/// The warp-centric brute-force pass over every forest bucket, feeding the
/// global k-NN sets with the selected maintenance strategy. One warp
/// processes one bucket.
///
/// Kernel shapes (see DESIGN.md):
///  * kBasic / kAtomic — pair-at-a-time: the warp walks ordered pairs (a,b),
///    computes one distance with dimension-parallel lanes, and submits both
///    directions through the strategy's insert.
///  * kTiled — GEMM-style: the warp computes 32x32 distance blocks with
///    dimension-chunked coordinate staging in scratch (each coordinate is
///    read from global memory once per tile pair instead of once per pair),
///    then merges sorted 32-candidate runs into the k-sets.
/// Every distance comes from `scorer`, built over `points` (fp32) or over
/// their SQ8 codes — the compressed storage tier. Under SQ8 the k-NN sets
/// hold approximate distances; the builder's exact rerank restores
/// full-precision ordering before the final graph is emitted.
///
/// Recovery: per-bucket failures (scratch overflow, warp abort, lock
/// timeout — real or injected) are caught inside the warp body, recorded,
/// and the affected buckets are re-launched up to `max_retries` times with
/// capped backoff; a kShared bucket that overflowed its scratch budget is
/// retried with the kTiled kernel instead (recorded as degraded). Retrying a partially processed
/// bucket is safe because k-NN-set inserts are idempotent (duplicate ids
/// rejected, keep-k-best). `quarantined` — a sorted id list — is filtered
/// out of every bucket before processing. Buckets that fail every retry are
/// counted in the report; their points simply keep whatever neighbors other
/// buckets gave them.
void leaf_knn_resilient(ThreadPool& pool, const FloatMatrix& points,
                        const Buckets& buckets, Strategy strategy,
                        KnnSetArray& sets, simt::StatsAccumulator* acc,
                        std::size_t scratch_bytes,
                        const simt::ScheduleSpec& schedule,
                        std::size_t max_retries,
                        std::span<const std::uint32_t> quarantined,
                        LeafReport& report, const simt::RowScorer& scorer);

/// Brute-forces one id list as a bucket with the given strategy, feeding the
/// global k-NN sets: every unordered pair is evaluated once and submitted to
/// both endpoints. This is the leaf pass's inner kernel.
/// Distances come from `scorer` (see leaf_knn_resilient).
void process_bucket(simt::Warp& w, const FloatMatrix& points,
                    std::span<const std::uint32_t> ids, Strategy strategy,
                    KnnSetArray& sets, const simt::RowScorer& scorer);

}  // namespace wknng::core
