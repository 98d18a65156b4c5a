#include "core/leaf_knn.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <vector>

#include "common/error.hpp"
#include "core/resilience.hpp"
#include "core/tiled_block.hpp"
#include "simt/cost.hpp"
#include "simt/fault.hpp"
#include "simt/launch.hpp"
#include "simt/packed.hpp"
#include "simt/sort.hpp"
#include "simt/warp_distance.hpp"

namespace wknng::core {

using simt::kWarpSize;
using simt::Lanes;
using simt::Packed;
using simt::Warp;

namespace {

/// Pair-at-a-time bucket kernel shared by kBasic and kAtomic: point a is
/// prepared as the query once, then one distance per step (dimension-parallel
/// lanes) and an immediate strategy insert of both directions.
void bucket_pairwise(Warp& w, const FloatMatrix& points,
                     std::span<const std::uint32_t> ids, Strategy strategy,
                     KnnSetArray& sets, const simt::RowScorer& scorer) {
  const std::size_t m = ids.size();
  std::span<float> staging;
  if (m >= 2) staging = scorer.alloc_staging(w);
  for (std::size_t a = 0; a + 1 < m; ++a) {
    simt::fault_maybe_throw(simt::FaultSite::kWarpAbort);  // mid-bucket kill
    const std::uint32_t ia = ids[a];
    const simt::RowScorer::Query q =
        scorer.prepare(w, points.row(ia), staging);
    for (std::size_t b = a + 1; b < m; ++b) {
      const std::uint32_t ib = ids[b];
      const float dist = scorer.pair(w, q, ib);
      sets.insert(w, strategy, ia, Packed::make(dist, ib));
      sets.insert(w, strategy, ib, Packed::make(dist, ia));
    }
  }
}

/// GEMM-style tiled bucket kernel (strategy kTiled): the bucket is swept as
/// pairs of 32-point tiles through the shared tile-pair kernel
/// (core/tiled_block.hpp), which stages coordinates in scratch so each
/// global coordinate is read once per tile pair — the coalesced,
/// reuse-friendly pattern that makes this strategy win at high
/// dimensionality.
void bucket_tiled(Warp& w, const FloatMatrix& points,
                  std::span<const std::uint32_t> ids, KnnSetArray& sets,
                  const simt::RowScorer& scorer) {
  const std::size_t m = ids.size();
  if (m < 2) return;
  const detail::TileBuffers buf =
      detail::alloc_tile_buffers(w, points.cols(), sets.k());

  const std::size_t num_tiles = (m + kWarpSize - 1) / kWarpSize;
  for (std::size_t ta = 0; ta < num_tiles; ++ta) {
    const std::size_t a0 = ta * kWarpSize;
    const std::size_t na = std::min<std::size_t>(kWarpSize, m - a0);
    for (std::size_t tb = ta; tb < num_tiles; ++tb) {
      simt::fault_maybe_throw(simt::FaultSite::kWarpAbort);  // mid-bucket kill
      const std::size_t b0 = tb * kWarpSize;
      const std::size_t nb = std::min<std::size_t>(kWarpSize, m - b0);
      detail::process_tile_pair(
          w, points, [&](std::size_t i) { return ids[a0 + i]; }, na,
          [&](std::size_t j) { return ids[b0 + j]; }, nb,
          /*diagonal=*/ta == tb, sets, buf, scorer);
    }
  }
}

/// Shared-memory bucket kernel (strategy kShared — the baseline the paper
/// improves on): the bucket's k-NN sets are scratch-resident for the whole
/// pass. Pairwise distances update the scratch sets with zero global-memory
/// traffic and zero synchronisation (one warp owns the bucket); at bucket
/// end every point's scratch set is sorted and merged into its global set.
/// Throws when leaf_size * k exceeds the scratch budget — the limitation
/// that motivates the three global-memory strategies.
void bucket_shared(Warp& w, const FloatMatrix& points,
                   std::span<const std::uint32_t> ids, KnnSetArray& sets,
                   const simt::RowScorer& scorer) {
  const std::size_t m = ids.size();
  if (m < 2) return;
  const std::size_t k = sets.k();

  const std::size_t need = m * k * sizeof(std::uint64_t) +
                           scorer.staging_floats() * sizeof(float);
  if (need + 1024 > w.scratch().capacity()) {
    std::ostringstream os;
    os << "shared-memory strategy infeasible: bucket of " << m << " points x k="
       << k << " needs " << need << " B of scratch (capacity "
       << w.scratch().capacity()
       << " B) — use a global-memory strategy (this is the limitation "
          "the paper's w-KNNG strategies remove)";
    throw ScratchOverflowError(os.str());
  }
  auto local = w.scratch().alloc<std::uint64_t>(m * k);
  const std::span<float> staging = scorer.alloc_staging(w);
  std::fill(local.begin(), local.end(), Packed::kEmpty);

  // Scratch-set insert: replace-worst scan, no locks, no global traffic.
  auto insert_local = [&](std::size_t slot_owner, std::uint64_t cand) {
    std::uint64_t* row = &local[slot_owner * k];
    std::size_t worst = 0;
    for (std::size_t s = 0; s < k; ++s) {
      if (row[s] == cand) return;  // duplicate pair
      if (row[s] > row[worst]) worst = s;
    }
    simt::cost::ballot_rounds(w.stats(), k);
    simt::cost::shuffle_reduce(w.stats());
    if (cand < row[worst]) row[worst] = cand;
  };

  for (std::size_t a = 0; a + 1 < m; ++a) {
    simt::fault_maybe_throw(simt::FaultSite::kWarpAbort);  // mid-bucket kill
    const simt::RowScorer::Query q =
        scorer.prepare(w, points.row(ids[a]), staging);
    for (std::size_t b = a + 1; b < m; ++b) {
      const float dist = scorer.pair(w, q, ids[b]);
      insert_local(a, Packed::make(dist, ids[b]));
      insert_local(b, Packed::make(dist, ids[a]));
    }
  }

  // Bucket-end writeback: sort each scratch set, merge into the global set
  // in 32-candidate runs.
  for (std::size_t a = 0; a < m; ++a) {
    std::span<std::uint64_t> row = local.subspan(a * k, k);
    simt::sort_scratch(w, row);
    for (std::size_t c0 = 0; c0 < k; c0 += kWarpSize) {
      const std::size_t cnt = std::min<std::size_t>(kWarpSize, k - c0);
      if (Packed::is_empty(row[c0])) break;  // rest of the row is empty
      Lanes<std::uint64_t> run;
      run.fill(Packed::kEmpty);
      for (std::size_t c = 0; c < cnt; ++c) run[c] = row[c0 + c];
      sets.merge_sorted_tile(w, ids[a], run);
    }
  }
}

}  // namespace

void process_bucket(simt::Warp& w, const FloatMatrix& points,
                    std::span<const std::uint32_t> ids, Strategy strategy,
                    KnnSetArray& sets, const simt::RowScorer& scorer) {
  simt::fault_maybe_throw(simt::FaultSite::kWarpAbort);
  switch (strategy) {
    case Strategy::kTiled:
      bucket_tiled(w, points, ids, sets, scorer);
      return;
    case Strategy::kShared:
      bucket_shared(w, points, ids, sets, scorer);
      return;
    case Strategy::kBasic:
    case Strategy::kAtomic:
      bucket_pairwise(w, points, ids, strategy, sets, scorer);
      return;
  }
}

namespace {

/// One failed bucket execution: which bucket, and whether the failure was a
/// scratch overflow (the only failure kind with a dedicated fallback rung).
struct BucketFailure {
  std::uint32_t bucket = 0;
  bool scratch_overflow = false;

  friend bool operator<(const BucketFailure& a, const BucketFailure& b) {
    return a.bucket != b.bucket ? a.bucket < b.bucket
                                : a.scratch_overflow < b.scratch_overflow;
  }
};

}  // namespace

void leaf_knn_resilient(ThreadPool& pool, const FloatMatrix& points,
                        const Buckets& buckets, Strategy strategy,
                        KnnSetArray& sets, simt::StatsAccumulator* acc,
                        std::size_t scratch_bytes,
                        const simt::ScheduleSpec& schedule,
                        std::size_t max_retries,
                        std::span<const std::uint32_t> quarantined,
                        LeafReport& report, const simt::RowScorer& scorer) {
  simt::LaunchConfig config;
  config.scratch_bytes = scratch_bytes;
  config.schedule = schedule;
  config.trace_label = "leaf_knn";

  std::mutex failures_mutex;
  std::vector<BucketFailure> failures;

  // Runs the buckets listed in `work` (all buckets when empty) with
  // `strat`, catching per-bucket failures inside the warp body so one bad
  // bucket never aborts the launch. The launch itself is retried on
  // allocation failure (which fires before any warp has run).
  const auto run = [&](std::span<const BucketFailure> work, Strategy strat) {
    const std::size_t count = work.empty() ? buckets.num_buckets() : work.size();
    if (count == 0) return;
    with_launch_retry(max_retries, report.launches_retried, [&] {
      simt::launch_warps(pool, count, config, acc, [&](Warp& w) {
        const std::uint32_t b = work.empty()
                                    ? static_cast<std::uint32_t>(w.id())
                                    : work[w.id()].bucket;
        std::span<const std::uint32_t> ids = buckets.bucket(b);
        std::vector<std::uint32_t> kept;
        if (!quarantined.empty()) {
          kept.reserve(ids.size());
          for (const std::uint32_t id : ids) {
            if (!std::binary_search(quarantined.begin(), quarantined.end(), id)) {
              kept.push_back(id);
            }
          }
          ids = kept;
        }
        try {
          process_bucket(w, points, ids, strat, sets, scorer);
        } catch (const ScratchOverflowError&) {
          std::lock_guard<std::mutex> lock(failures_mutex);
          failures.push_back({b, /*scratch_overflow=*/true});
        } catch (const WarpAbortError&) {
          std::lock_guard<std::mutex> lock(failures_mutex);
          failures.push_back({b, /*scratch_overflow=*/false});
        } catch (const LockTimeoutError&) {
          std::lock_guard<std::mutex> lock(failures_mutex);
          failures.push_back({b, /*scratch_overflow=*/false});
        }
      });
    });
  };

  run({}, strategy);

  for (std::size_t attempt = 0; !failures.empty() && attempt < max_retries;
       ++attempt) {
    // Sorted retry list for a deterministic re-launch order; a retried
    // bucket may have done partial work already, which is safe to repeat
    // because k-NN-set inserts are idempotent (duplicates rejected,
    // keep-k-best).
    std::vector<BucketFailure> retry = std::move(failures);
    failures.clear();
    std::sort(retry.begin(), retry.end());
    retry.erase(std::unique(retry.begin(), retry.end(),
                            [](const BucketFailure& a, const BucketFailure& b) {
                              return a.bucket == b.bucket;
                            }),
                retry.end());
    report.buckets_retried += retry.size();
    retry_backoff_sleep(attempt);

    if (strategy == Strategy::kShared) {
      // A kShared bucket that overflowed scratch will overflow again —
      // degrade those to the kTiled kernel; retry the rest as kShared.
      std::vector<BucketFailure> degrade;
      std::vector<BucketFailure> same;
      for (const BucketFailure& f : retry) {
        (f.scratch_overflow ? degrade : same).push_back(f);
      }
      report.buckets_degraded += degrade.size();
      // An empty span means "all buckets" to run(), so skip empty partitions.
      if (!degrade.empty()) run(degrade, Strategy::kTiled);
      if (!same.empty()) run(same, Strategy::kShared);
    } else {
      if (!retry.empty()) run(retry, strategy);
    }
  }
  report.buckets_failed = failures.size();
}

}  // namespace wknng::core
