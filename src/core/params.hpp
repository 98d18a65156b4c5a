#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/params.hpp"
#include "simt/fault.hpp"
#include "simt/schedule.hpp"

namespace wknng::core {

/// The paper's three warp-centric k-NN-set maintenance strategies.
enum class Strategy {
  /// "w-KNNG": per-point spin lock; the warp scans the k slots, replaces the
  /// current worst. Simple, serialises concurrent updaters of one point.
  kBasic,
  /// "w-KNNG atomic": lock-free — packed (dist,id) words updated by CAS on
  /// the worst slot. Wins when distances are cheap (low dimensionality) and
  /// update rate dominates.
  kAtomic,
  /// "tiled w-KNNG": candidates staged and sorted in per-warp scratch tiles,
  /// distance blocks computed GEMM-style with coordinate reuse, sorted runs
  /// merged into the k-set in one short critical section. Wins for higher
  /// dimensional points.
  kTiled,
  /// Shared-memory baseline — the approach the paper argues *against*: the
  /// whole bucket's k-NN sets live in per-warp scratch during the leaf pass
  /// (zero global-memory traffic for set maintenance) and are merged into
  /// global memory once at bucket end. Only feasible while
  /// leaf_size * k * 8 bytes fit the scratch budget; the builder throws
  /// otherwise — which is exactly the "space limitation in maintaining
  /// these sets in high speed shared memory" the abstract motivates the
  /// three global-memory strategies with.
  kShared,
};

/// Compressed storage tier for candidate-generation distances.
enum class Compression {
  /// Full-precision fp32 rows everywhere (the pre-compression behavior,
  /// bit for bit).
  kNone,
  /// 8-bit scalar quantization (kernels/sq8.hpp): the leaf pass, refinement,
  /// and graph search score u8 code rows asymmetrically (1 byte/dim of
  /// candidate traffic instead of 4), then an exact fp32 rerank of the top
  /// `rerank_depth` candidates restores full-precision ordering before
  /// admission to the final top-k.
  kSq8,
};

const char* strategy_name(Strategy s);

const char* compression_name(Compression c);

/// Parse "none" / "sq8" (throws wknng::Error listing the valid names
/// otherwise).
Compression compression_from_name(const std::string& name);

/// Parse "basic" / "atomic" / "tiled" / "shared" (throws wknng::Error listing
/// the valid names otherwise).
Strategy strategy_from_name(const std::string& name);

/// The paper's conclusion as a policy: atomic for a smaller number of
/// dimensions (d <= 16), tiled for higher-dimensional points. The rule is
/// the paper's claim 4, not a measurement: at bench scale tiled builds
/// faster at every d (EXPERIMENTS.md, Fig. 1), and ROADMAP.md item 3 owns
/// re-deriving the threshold from bench/fig1_dim_crossover.
Strategy recommended_strategy(std::size_t dim);

/// All knobs of the w-KNNG builder. Defaults give a reasonable
/// recall/time point for clustered data in the tens-of-thousands range.
struct BuildParams {
  std::size_t k = 10;            ///< neighbors per point in the output graph
  Strategy strategy = Strategy::kTiled;

  // Random-projection forest.
  std::size_t num_trees = 8;     ///< independent RP trees; more = higher recall
  std::size_t leaf_size = 64;    ///< max bucket size; brute-forced by one warp

  // Neighbor-of-neighbor refinement.
  std::size_t refine_iters = 1;      ///< rounds after the forest pass (0 = off)
  std::size_t refine_sample = 512;   ///< max candidates examined per point/round
  std::size_t reverse_cap = 0;       ///< reverse edges kept per point (0 = k)

  std::uint64_t seed = 1234;     ///< drives tree directions and sampling

  /// Scratch ("shared memory") budget per warp in bytes.
  std::size_t scratch_bytes = 48 * 1024;

  /// Warp-scheduling policy for every kernel launch of the build. The
  /// default (dynamic) is the performance path; deterministic policies
  /// replay the build under a fixed warp interleaving — the schedule-fuzzing
  /// hook used to prove strategies order-independent (simt/schedule.hpp).
  simt::ScheduleSpec schedule;

  /// Runs the whole build under the shadow-state race detector
  /// (simt/race.hpp) and reports flagged conflicts in
  /// BuildResult::races_detected. Also enabled by setting the
  /// WKNNG_CHECK_RACES environment variable (CI hook). Expensive — debug
  /// and CI only.
  bool check_races = false;

  /// Deterministic fault-injection campaign for the whole build
  /// (simt/fault.hpp). Also enabled via the WKNNG_INJECT_FAULTS environment
  /// variable ("site:seed[:probability[:max_faults]]"). Injected failures
  /// exercise the same recovery paths as real ones; outcomes are reported in
  /// BuildResult::health.
  simt::FaultSpec faults;

  /// How many times a failed leaf bucket (or an allocation-failed launch) is
  /// retried before being recorded as failed. Retries back off with a capped
  /// exponential sleep.
  std::size_t max_bucket_retries = 3;

  /// Soft wall-clock budget for the build; 0 disables. When exceeded, the
  /// build stops cleanly after the current phase / refinement round and
  /// returns the partial (still valid) graph with health.deadline_hit set.
  /// The forest and leaf phases always complete — the budget only sheds
  /// refinement rounds.
  double deadline_seconds = 0.0;

  /// When non-empty, the builder writes a resumable checkpoint of the k-NN
  /// set state to this path after the leaf pass and after every refinement
  /// round (atomically, via a temp file + rename). KnngBuilder::resume picks
  /// the build up from it.
  std::string checkpoint_path;

  /// Storage tier for candidate-generation distances. kSq8 trains an SQ8
  /// codebook on the (sanitized) input at build time, scores candidates
  /// against the compressed rows, and exact-reranks before emitting the
  /// final graph. kNone leaves every code path bit-identical to the
  /// pre-compression builder.
  Compression compression = Compression::kNone;

  /// How many compressed-tier candidates per point survive to the exact
  /// fp32 rerank (compression != kNone only). 0 means auto: 2*k. Values
  /// below k are rounded up to k. Larger depths recover more of the
  /// full-precision recall at the cost of more fp32 distance evaluations.
  std::size_t rerank_depth = 0;

  /// Observability knobs (obs/params.hpp): span-tracing participation, the
  /// optional builder-owned trace output path, and per-warp spans. Also
  /// driven by the WKNNG_TRACE / WKNNG_TRACE_WARPS environment variables.
  /// Tracing never changes the build's result — spans observe, they do not
  /// steer.
  obs::ObsParams obs;
};

/// Hash of every parameter (plus n and dim) that determines the k-NN set
/// state at a phase boundary. Stored in checkpoints and verified on resume;
/// deliberately excludes refine_iters (a checkpoint after round i is valid
/// under any total round count), the deadline, the fault spec, and the
/// checkpoint path itself.
std::uint64_t build_signature(const BuildParams& p, std::size_t n,
                              std::size_t dim);

/// Resolves the rerank-depth knob: 0 = auto (2*k); explicit values are
/// clamped up to k so the rerank can never shrink the candidate pool below
/// the output width. Shared by the builder and the serve-time search path.
inline std::size_t effective_rerank_depth(std::size_t k,
                                          std::size_t rerank_depth) {
  if (rerank_depth == 0) return 2 * k;
  return rerank_depth < k ? k : rerank_depth;
}

}  // namespace wknng::core
