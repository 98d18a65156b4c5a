#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/knn_graph.hpp"
#include "common/matrix.hpp"
#include "common/thread_pool.hpp"
#include "core/params.hpp"
#include "data/graph_io.hpp"
#include "kernels/sq8.hpp"
#include "simt/stats.hpp"

namespace wknng::obs {
class MetricsRegistry;
}  // namespace wknng::obs

namespace wknng::core {

class KnnSetArray;

/// What the build had to survive: the recovery ledger of one build. A build
/// is `degraded` when its output may differ from the ideal run — points were
/// quarantined or skipped, a strategy fallback happened, buckets failed for
/// good, or the deadline shed refinement rounds. Successful retries alone do
/// NOT degrade a build: retrying a partially processed bucket is idempotent,
/// so the result is the one the ideal run would have produced.
struct BuildHealth {
  bool degraded = false;
  std::string fallback_reason;         ///< e.g. kShared -> kTiled, with cause
  std::size_t buckets_retried = 0;     ///< leaf bucket executions re-launched
  std::size_t buckets_failed = 0;      ///< leaf buckets failed after all retries
  std::size_t buckets_degraded = 0;    ///< kShared buckets re-run as kTiled
  std::size_t launches_retried = 0;    ///< whole launches retried (alloc fail)
  std::size_t points_quarantined = 0;  ///< non-finite input rows excluded
  std::size_t refine_points_skipped = 0;  ///< point-rounds skipped in refine
  std::size_t rounds_completed = 0;    ///< refine rounds actually finished
  bool deadline_hit = false;           ///< soft budget stopped the build early
  std::uint64_t faults_injected = 0;   ///< decisions fired by the fault campaign
};

/// Everything a build produces: the graph, per-phase wall-clock timings, and
/// the aggregated device work counters. Phase timings are the rows of the
/// phase-breakdown experiment (Tab. 1 in DESIGN.md).
struct BuildResult {
  KnnGraph graph;

  double forest_seconds = 0.0;   ///< RP-forest construction
  double leaf_seconds = 0.0;     ///< warp-centric brute force over buckets
  double refine_seconds = 0.0;   ///< all neighbor-of-neighbor rounds
  double rerank_seconds = 0.0;   ///< exact fp32 rerank (compression=sq8 only)
  double extract_seconds = 0.0;  ///< k-set normalisation into KnnGraph
  double total_seconds = 0.0;

  /// Compressed-tier artifacts (compression=sq8 only; null otherwise): the
  /// trained code matrix — shared with checkpoints and handed to serving so
  /// queries keep scoring compressed rows — plus the rerank ledger.
  std::shared_ptr<const kernels::Sq8Matrix> sq8;
  std::uint64_t candidates_reranked = 0;  ///< exact distances in rerank phase
  std::size_t rerank_depth_used = 0;      ///< resolved per-point rerank depth

  simt::Stats stats;             ///< aggregated over every launch
  std::size_t num_buckets = 0;   ///< forest leaves processed

  /// The strategy the leaf and refine phases ran: BuildParams::strategy
  /// unless the kShared preflight fell back to kTiled (or a resumed
  /// checkpoint was built with another strategy).
  Strategy effective_strategy = Strategy::kTiled;

  /// Conflicts flagged by the race detector; always 0 unless
  /// BuildParams::check_races (or WKNNG_CHECK_RACES) enabled detection.
  std::size_t races_detected = 0;

  /// The recovery ledger: retries, fallbacks, quarantines, deadline.
  BuildHealth health;

  /// Ids of quarantined (non-finite) input rows, sorted ascending. Their
  /// graph rows hold best-effort neighbors at +inf distance.
  std::vector<std::uint32_t> quarantined_ids;
};

/// w-KNNG: the paper's all-points approximate K-NN graph builder.
///
/// Pipeline: RP forest -> warp-per-bucket brute force into global-memory
/// k-NN sets (maintained by the configured Strategy) -> optional
/// neighbor-of-neighbor refinement rounds -> extraction.
///
/// Usage:
///   ThreadPool pool;
///   core::BuildParams params;              // k, strategy, trees, ...
///   core::KnngBuilder builder(pool, params);
///   core::BuildResult r = builder.build(points);
///   // r.graph.row(i) = point i's neighbors, sorted by distance
class KnngBuilder {
 public:
  KnngBuilder(ThreadPool& pool, BuildParams params);

  const BuildParams& params() const { return params_; }

  /// Builds the graph for `points` (rows = points). Thread-compatible: one
  /// build at a time per builder, but distinct builders are independent.
  ///
  /// With `sets`, the build runs in the caller's k-NN set array — a fresh
  /// points.rows() x k array (k widened to the rerank depth under sq8) —
  /// and leaves it holding the refined sets, for callers that keep mutating
  /// them (dynamic::DynamicKnng). Without it the sets are build-local.
  BuildResult build(const FloatMatrix& points,
                    KnnSetArray* sets = nullptr) const;

  /// Resumes a build from a checkpoint written by a previous run with the
  /// same parameters and points (verified via build_signature — throws
  /// CheckpointMismatchError otherwise). The forest and leaf phases are
  /// skipped; refinement continues from the checkpointed round. Under a
  /// deterministic schedule the result is bit-identical to the
  /// uninterrupted build.
  BuildResult resume(const FloatMatrix& points,
                     const std::string& checkpoint_path) const;
  BuildResult resume(const FloatMatrix& points,
                     const data::BuildCheckpoint& checkpoint) const;

 private:
  BuildResult run(const FloatMatrix& points,
                  const data::BuildCheckpoint* checkpoint,
                  KnnSetArray* out_sets) const;

  ThreadPool* pool_;
  BuildParams params_;
};

/// One-call convenience wrapper.
BuildResult build_knng(ThreadPool& pool, const FloatMatrix& points,
                       const BuildParams& params);

/// Register the build's timings, health ledger, fault counts, and aggregated
/// Stats counters into the central metrics registry (`wknng_build_*` series),
/// for export via the registry's Prometheus/JSON formats.
void register_build_metrics(obs::MetricsRegistry& reg, const BuildResult& r);

// --- Input quarantine (shared with the dynamic layer) ---------------------

/// Finds the input rows containing a non-finite coordinate. Returns their
/// ids, sorted ascending (parallel scan with a deterministic gather).
std::vector<std::uint32_t> scan_nonfinite_rows(ThreadPool& pool,
                                               const FloatMatrix& points);

/// Gives every quarantined point a best-effort row: the k lowest-id healthy
/// points at +inf distance — valid under the graph invariants and
/// unambiguously marked, so search code that walks the graph never falls off
/// a hole. `quarantined` must be sorted ascending.
void fill_quarantined_rows(KnnGraph& g,
                           std::span<const std::uint32_t> quarantined);

}  // namespace wknng::core
