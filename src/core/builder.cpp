#include "core/builder.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/knn_set.hpp"
#include "core/leaf_knn.hpp"
#include "core/refine.hpp"
#include "core/resilience.hpp"
#include "core/rp_forest.hpp"
#include "kernels/kernels.hpp"
#include "kernels/sq8.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "simt/fault.hpp"
#include "simt/launch.hpp"
#include "simt/race.hpp"
#include "simt/warp_distance.hpp"

namespace wknng::core {

const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kBasic: return "basic";
    case Strategy::kAtomic: return "atomic";
    case Strategy::kTiled: return "tiled";
    case Strategy::kShared: return "shared";
  }
  return "?";
}

Strategy strategy_from_name(const std::string& name) {
  if (name == "basic") return Strategy::kBasic;
  if (name == "atomic") return Strategy::kAtomic;
  if (name == "tiled") return Strategy::kTiled;
  if (name == "shared") return Strategy::kShared;
  throw Error("unknown strategy: " + name +
              " (valid: basic, atomic, tiled, shared)");
}

Strategy recommended_strategy(std::size_t dim) {
  return dim <= 16 ? Strategy::kAtomic : Strategy::kTiled;
}

const char* compression_name(Compression c) {
  switch (c) {
    case Compression::kNone: return "none";
    case Compression::kSq8: return "sq8";
  }
  return "?";
}

Compression compression_from_name(const std::string& name) {
  if (name == "none") return Compression::kNone;
  if (name == "sq8") return Compression::kSq8;
  throw Error("unknown compression: " + name + " (valid: none, sq8)");
}

std::uint64_t build_signature(const BuildParams& p, std::size_t n,
                              std::size_t dim) {
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV offset basis as a start
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  };
  mix(p.k);
  mix(static_cast<std::uint64_t>(p.strategy));
  mix(p.num_trees);
  mix(p.leaf_size);
  // Two deleted fields keep their defaults' slots: saved checkpoints stay valid.
  mix(0u);  // the bits of 0.0f, the deleted leaf-overlap fraction
  mix(p.refine_sample);
  mix(p.reverse_cap);
  mix(0);   // the deleted refine-mode enum's default
  mix(p.seed);
  mix(p.scratch_bytes);
  mix(static_cast<std::uint64_t>(p.schedule.policy));
  mix(p.schedule.seed);
  // The compressed tier changes every candidate distance, so it belongs in
  // the signature — but only when enabled: compression=none must keep the
  // exact pre-compression signature so existing checkpoints stay valid.
  if (p.compression != Compression::kNone) {
    mix(static_cast<std::uint64_t>(p.compression));
    mix(p.rerank_depth);
  }
  mix(n);
  mix(dim);
  return h;
}

KnngBuilder::KnngBuilder(ThreadPool& pool, BuildParams params)
    : pool_(&pool), params_(params) {
  WKNNG_CHECK_MSG(params_.k > 0, "k must be positive");
  WKNNG_CHECK_MSG(params_.num_trees > 0, "need at least one tree");
  WKNNG_CHECK_MSG(params_.leaf_size >= 2, "leaf_size must be >= 2");
  WKNNG_CHECK_MSG(params_.refine_iters == 0 || params_.refine_sample > 0,
                  "refine_sample must be positive when refine_iters > 0");
  WKNNG_CHECK_MSG(params_.deadline_seconds >= 0.0,
                  "deadline_seconds must be >= 0: " << params_.deadline_seconds);
  if (const char* env = std::getenv("WKNNG_CHECK_RACES");
      env != nullptr && *env != '\0' && *env != '0') {
    params_.check_races = true;
  }
  if (const char* env = std::getenv("WKNNG_INJECT_FAULTS");
      env != nullptr && *env != '\0') {
    params_.faults = simt::fault_spec_from_string(env);
  }
  params_.obs = obs::params_from_env(params_.obs);
}

/// Finds the input rows containing a non-finite coordinate. Returns their
/// ids, sorted ascending (parallel scan with a deterministic gather).
std::vector<std::uint32_t> scan_nonfinite_rows(ThreadPool& pool,
                                               const FloatMatrix& points) {
  const std::size_t n = points.rows();
  std::vector<std::uint8_t> bad(n, 0);
  std::atomic<std::size_t> any{0};
  pool.parallel_for(n, 256, [&](std::size_t p) {
    if (kernels::has_nonfinite(points.row(p))) {
      bad[p] = 1;
      any.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::vector<std::uint32_t> ids;
  if (any.load(std::memory_order_relaxed) != 0) {
    for (std::size_t p = 0; p < n; ++p) {
      if (bad[p] != 0) ids.push_back(static_cast<std::uint32_t>(p));
    }
  }
  return ids;
}

/// Gives every quarantined point a best-effort row: the k lowest-id healthy
/// points at +inf distance. The row is valid under the graph invariants
/// (+inf entries sort by ascending id) and unambiguously marked — a consumer
/// can tell these are placeholders, but search code that walks the graph
/// never falls off a hole.
void fill_quarantined_rows(KnnGraph& g,
                           std::span<const std::uint32_t> quarantined) {
  const std::size_t k = g.k();
  std::vector<std::uint32_t> healthy;
  healthy.reserve(k + 1);
  for (std::uint32_t id = 0; healthy.size() < k + 1 &&
                             id < static_cast<std::uint32_t>(g.num_points());
       ++id) {
    if (!std::binary_search(quarantined.begin(), quarantined.end(), id)) {
      healthy.push_back(id);
    }
  }
  const float inf = std::numeric_limits<float>::infinity();
  for (const std::uint32_t q : quarantined) {
    auto row = g.row(q);
    std::size_t out = 0;
    for (const std::uint32_t id : healthy) {
      if (out == k) break;
      if (id == q) continue;
      row[out++] = Neighbor{inf, id};
    }
  }
}

namespace {

/// One top-level phase on the build track of a trace: begins a tracer phase
/// at construction (so kernel launches attribute to it) and records a span
/// carrying the phase duration plus the Stats delta it covered. All methods
/// are no-ops when the tracer is null.
class PhaseSpan {
 public:
  PhaseSpan(obs::Tracer* tr, const char* name, simt::StatsAccumulator& acc)
      : acc_(&acc) {
    if (tr == nullptr) return;
    const std::uint64_t phase_idx = tr->begin_phase(name);
    span_.emplace(tr, name, "phase",
                  obs::Tracer::span_id(phase_idx, 0, 0, obs::SpanSalt::kPhase),
                  obs::kTrackBuild);
    before_ = acc_->total();
  }

  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

  ~PhaseSpan() { finish(); }

  /// Record the span now; `seconds < 0` omits the seconds argument.
  void finish(double seconds = -1.0) {
    if (!span_) return;
    if (seconds >= 0.0) span_->arg_num("seconds", seconds);
    span_->arg("stats",
               simt::stats_delta(acc_->total(), before_).to_json());
    span_->finish();
    span_.reset();
  }

 private:
  simt::StatsAccumulator* acc_;
  simt::Stats before_;
  std::optional<obs::Span> span_;
};

}  // namespace

BuildResult KnngBuilder::build(const FloatMatrix& points,
                               KnnSetArray* sets) const {
  return run(points, nullptr, sets);
}

BuildResult KnngBuilder::resume(const FloatMatrix& points,
                                const std::string& checkpoint_path) const {
  const data::BuildCheckpoint ckpt = data::read_checkpoint(checkpoint_path);
  return run(points, &ckpt, nullptr);
}

BuildResult KnngBuilder::resume(const FloatMatrix& points,
                                const data::BuildCheckpoint& checkpoint) const {
  return run(points, &checkpoint, nullptr);
}

BuildResult KnngBuilder::run(const FloatMatrix& points,
                             const data::BuildCheckpoint* ckpt,
                             KnnSetArray* out_sets) const {
  const std::size_t n = points.rows();
  WKNNG_CHECK_MSG(n > params_.k,
                  "need more points than k: n=" << n << " k=" << params_.k);

  BuildResult result;
  simt::StatsAccumulator acc;
  Timer total;
  Timer phase;

  // Observability: with a trace_path and no tracer already installed, the
  // builder owns one for the duration of the build and writes the Chrome
  // trace JSON at the end. Otherwise it participates in whatever tracer the
  // caller installed — unless obs.trace turned participation off.
  std::optional<obs::Tracer> own_tracer;
  std::optional<obs::ScopedTracing> own_scope;
  if (params_.obs.trace && !params_.obs.trace_path.empty() &&
      obs::active_tracer() == nullptr) {
    own_tracer.emplace(params_.obs.trace_warps);
    own_scope.emplace(*own_tracer);
  }
  obs::Tracer* tr = params_.obs.trace ? obs::active_tracer() : nullptr;

  std::optional<obs::Span> root;
  if (tr != nullptr) {
    const std::uint64_t idx = tr->begin_phase("build");
    root.emplace(tr, "build", "build",
                 obs::Tracer::span_id(idx, 0, 0, obs::SpanSalt::kBuild),
                 obs::kTrackBuild);
    root->arg_num("n", static_cast<std::uint64_t>(n));
    root->arg_num("dim", static_cast<std::uint64_t>(points.cols()));
    root->arg_num("k", static_cast<std::uint64_t>(params_.k));
    root->arg_str("strategy", strategy_name(params_.strategy));
    root->arg_str("compression", compression_name(params_.compression));
  }
  // First phase: everything up to the forest lap (quarantine scan, resume
  // verification, tree building) — mirroring what forest_seconds measures.
  std::optional<PhaseSpan> cur_phase;
  cur_phase.emplace(tr, ckpt == nullptr ? "forest" : "restore", acc);

  // Opt-in deterministic fault injection for the whole build (one injector
  // at a time process-wide, like the race detector below). When a caller —
  // e.g. a shard::ShardManager running many builds under one campaign — has
  // already installed an injector, the build runs under the ambient one
  // instead of nesting a second (ScopedFaultInjection rejects nesting), and
  // faults_injected reports only this build's share of its count.
  std::optional<simt::FaultInjector> injector;
  std::optional<simt::ScopedFaultInjection> injection;
  simt::FaultInjector* ambient = simt::active_fault_injector();
  const std::uint64_t ambient_injected_before =
      ambient != nullptr ? ambient->injected() : 0;
  if (params_.faults.enabled && ambient == nullptr) {
    injector.emplace(params_.faults);
    injection.emplace(*injector);
  }

  // Opt-in shadow-state race checking for the whole build (one detector at
  // a time process-wide; concurrent checked builds are not supported).
  std::optional<simt::RaceDetector> detector;
  std::optional<simt::ScopedRaceDetection> detection;
  if (params_.check_races) {
    detector.emplace();
    detection.emplace(*detector);
  }

  // Phase 0: input quarantine. Non-finite rows are excluded from the entire
  // build (a NaN coordinate would poison every distance it touches) and get
  // best-effort placeholder neighbors at extraction.
  const std::vector<std::uint32_t> quarantined =
      scan_nonfinite_rows(*pool_, points);
  result.quarantined_ids = quarantined;
  result.health.points_quarantined = quarantined.size();
  WKNNG_CHECK_MSG(n - quarantined.size() > params_.k,
                  "quarantine left too few usable points: " << quarantined.size()
                      << " of " << n << " rows are non-finite, need more than k="
                      << params_.k << " healthy ones");
  // The forest projects every row, so quarantined rows are zeroed in a
  // sanitized copy (only taken when needed). They still land in buckets but
  // are filtered out before any distance is computed.
  std::optional<FloatMatrix> sanitized;
  if (!quarantined.empty()) {
    sanitized.emplace(points);
    for (const std::uint32_t q : quarantined) {
      auto row = sanitized->row(q);
      std::fill(row.begin(), row.end(), 0.0f);
    }
  }
  const FloatMatrix& pts = sanitized ? *sanitized : points;

  const std::uint64_t signature =
      build_signature(params_, n, points.cols());

  // Compressed tier (compression=sq8): train/encode the codes every
  // candidate-generation distance is scored against. The k-NN sets are
  // widened to the rerank depth so the exact rerank phase has a pool of
  // compressed-tier survivors to re-order at full precision; the final
  // graph is truncated back to k.
  const bool use_sq8 = params_.compression == Compression::kSq8;
  const std::size_t k_build =
      use_sq8 ? effective_rerank_depth(params_.k, params_.rerank_depth)
              : params_.k;
  std::shared_ptr<const kernels::Sq8Matrix> sq8_matrix;
  if (use_sq8) {
    if (ckpt != nullptr && ckpt->sq8 != nullptr) {
      // Resume scores against the exact codes the checkpointed state was
      // produced under — the codes travel with the state, so bit-identical
      // continuation does not even rely on re-encoding determinism.
      WKNNG_CHECK_MSG(
          ckpt->sq8->rows() == n && ckpt->sq8->dim() == points.cols(),
          "checkpoint sq8 codes are " << ckpt->sq8->rows() << "x"
              << ckpt->sq8->dim() << ", expected " << n << "x"
              << points.cols());
      sq8_matrix = ckpt->sq8;
    } else {
      sq8_matrix =
          std::make_shared<const kernels::Sq8Matrix>(kernels::sq8_encode(pts));
    }
    result.sq8 = sq8_matrix;
    result.rerank_depth_used = k_build;
  }
  // The build's scorers, each cache computed once: candidate generation
  // (leaf and refine) scores through the codes when compressed, and the
  // exact scorer serves the rerank.
  const std::vector<float> norms = kernels::norm_cache(pts);
  const std::vector<float> sq8_terms =
      use_sq8 ? kernels::sq8_term_cache(*sq8_matrix) : std::vector<float>{};
  const simt::RowScorer exact(pts, norms);
  std::optional<simt::RowScorer> compressed;
  if (use_sq8) compressed.emplace(*sq8_matrix, sq8_terms);
  const simt::RowScorer& scorer = compressed ? *compressed : exact;

  // Resume path: verify the checkpoint belongs to this (params, points)
  // pair, then restore the k-NN set state and skip the phases it embodies.
  Strategy effective = params_.strategy;
  std::size_t start_round = 0;
  std::optional<KnnSetArray> own_sets;
  if (out_sets != nullptr) {
    WKNNG_CHECK_MSG(out_sets->num_points() == n && out_sets->k() == k_build,
                    "caller k-NN sets are " << out_sets->num_points() << "x"
                        << out_sets->k() << ", build needs " << n << "x"
                        << k_build);
  }
  KnnSetArray& sets =
      out_sets != nullptr ? *out_sets : own_sets.emplace(n, k_build);
  if (ckpt != nullptr) {
    if (ckpt->signature != signature || ckpt->n != n ||
        ckpt->k != k_build) {
      std::ostringstream os;
      os << "checkpoint does not match this build: signature "
         << ckpt->signature << " vs " << signature << ", n=" << ckpt->n
         << " vs " << n << ", k=" << ckpt->k << " vs " << k_build;
      throw CheckpointMismatchError(os.str());
    }
    if (!std::equal(ckpt->quarantined.begin(), ckpt->quarantined.end(),
                    quarantined.begin(), quarantined.end())) {
      throw CheckpointMismatchError(
          "checkpoint quarantine list does not match the input data");
    }
    WKNNG_CHECK_MSG(ckpt->effective_strategy <=
                        static_cast<std::uint32_t>(Strategy::kShared),
                    "checkpoint has invalid strategy value "
                        << ckpt->effective_strategy);
    effective = static_cast<Strategy>(ckpt->effective_strategy);
    start_round = ckpt->rounds_done;
    sets.restore(ckpt->sets);
    if (effective != params_.strategy) {
      result.health.degraded = true;
      result.health.fallback_reason =
          std::string("resumed from a checkpoint built with the ") +
          strategy_name(effective) + " strategy";
    }
  }
  if (detector) {
    detector->label_region(sets.row(0), n * k_build * sizeof(std::uint64_t),
                           "knn_sets");
    detector->label_region(sets.bounds().data(), n * sizeof(std::uint64_t),
                           "knn_bounds");
  }

  const auto write_ckpt = [&](std::uint32_t rounds_done) {
    if (params_.checkpoint_path.empty()) return;
    std::optional<obs::Span> ck;
    if (tr != nullptr) {
      ck.emplace(tr, "checkpoint", "ckpt",
                 obs::Tracer::span_id(tr->current_phase(), rounds_done, 0,
                                      obs::SpanSalt::kCheckpoint),
                 obs::kTrackBuild);
      ck->arg_num("rounds_done", static_cast<std::uint64_t>(rounds_done));
    }
    data::BuildCheckpoint c;
    c.signature = signature;
    c.n = n;
    c.k = k_build;
    c.rounds_done = rounds_done;
    c.sq8 = sq8_matrix;
    c.effective_strategy = static_cast<std::uint32_t>(effective);
    c.quarantined = quarantined;
    c.sets.assign(sets.words().begin(), sets.words().end());
    data::write_checkpoint(params_.checkpoint_path, c);
  };

  const auto deadline_exceeded = [&] {
    return params_.deadline_seconds > 0.0 &&
           total.elapsed_s() >= params_.deadline_seconds;
  };

  if (ckpt == nullptr) {
    // Phase 1: random-projection forest.
    const Buckets forest =
        build_rp_forest(*pool_, pts, params_.num_trees, params_.leaf_size,
                        params_.seed, &acc);
    result.num_buckets = forest.num_buckets();
    result.forest_seconds = phase.lap_s();
    cur_phase->finish(result.forest_seconds);
    cur_phase.emplace(tr, "leaf", acc);

    // kShared feasibility preflight: if the largest bucket cannot hold its
    // scratch-resident k-NN sets (and the staged query), degrade the whole
    // pass to kTiled up front instead of throwing — the paper's space
    // limitation handled as policy.
    if (effective == Strategy::kShared) {
      const std::size_t need =
          forest.max_bucket_size() * k_build * sizeof(std::uint64_t) +
          scorer.staging_floats() * sizeof(float) + 1024;
      if (need > params_.scratch_bytes) {
        effective = Strategy::kTiled;
        std::ostringstream os;
        os << "shared-memory strategy infeasible (largest bucket of "
           << forest.max_bucket_size() << " points x k=" << k_build
           << " needs " << need << " B of scratch, budget "
           << params_.scratch_bytes << " B); fell back to tiled";
        result.health.fallback_reason = os.str();
        result.health.degraded = true;
      }
    }

    // Phase 2: warp-centric brute force over every bucket, with bucket-level
    // retry/requeue and per-bucket kShared -> kTiled fallback.
    LeafReport leaf;
    leaf_knn_resilient(*pool_, pts, forest, effective, sets, &acc,
                       params_.scratch_bytes, params_.schedule,
                       params_.max_bucket_retries, quarantined, leaf,
                       scorer);
    result.health.buckets_retried = leaf.buckets_retried;
    result.health.buckets_failed = leaf.buckets_failed;
    result.health.buckets_degraded = leaf.buckets_degraded;
    result.health.launches_retried = leaf.launches_retried;
    result.leaf_seconds = phase.lap_s();
    cur_phase->finish(result.leaf_seconds);
    cur_phase.emplace(tr, "refine", acc);
    write_ckpt(0);
  } else {
    phase.lap_s();  // resumed builds report zero forest/leaf time
    cur_phase->finish();
    cur_phase.emplace(tr, "refine", acc);
  }

  // Phase 3: neighbor-of-neighbor refinement rounds. The deadline is
  // checked between rounds only — a round that started always finishes, so
  // the sets are at a well-defined phase boundary when we stop.
  BuildParams eff_params = params_;
  eff_params.strategy = effective;
  result.health.rounds_completed = start_round;
  {
    // One adjacency, refreshed in place: its old flags let a round skip the
    // pairs the round before it scored. A resumed build starts fresh. It is
    // released with the last round, before the sets are extracted.
    Adjacency adj;
    for (std::size_t round = start_round; round < params_.refine_iters;
         ++round) {
      if (deadline_exceeded()) {
        result.health.deadline_hit = true;
        break;
      }
      // Sub-phase per round: launches inside attribute to this round's phase
      // index, and the round span nests inside the "refine" phase span.
      PhaseSpan round_span(tr, "refine_round", acc);
      refresh_adjacency(*pool_, sets, params_.reverse_cap, adj);
      std::size_t skipped = 0;
      with_launch_retry(params_.max_bucket_retries,
                        result.health.launches_retried, [&] {
                          skipped = refine_round(*pool_, pts, adj, eff_params,
                                                 sets, &acc, scorer);
                        });
      result.health.refine_points_skipped += skipped;
      result.health.rounds_completed = round + 1;
      write_ckpt(static_cast<std::uint32_t>(round + 1));
    }
  }
  result.refine_seconds = phase.lap_s();
  cur_phase->finish(result.refine_seconds);

  // Phase 3.5 (compression=sq8 only): exact fp32 rerank. The widened k-NN
  // sets hold each point's best k_build candidates under the *approximate*
  // (quantized) metric; one warp per point rescores that pool against the
  // original fp32 rows and keeps the exact top k — restoring full-precision
  // ordering before anything reaches the output graph.
  std::optional<KnnGraph> reranked_graph;
  if (use_sq8) {
    cur_phase.emplace(tr, "rerank", acc);
    const KnnGraph wide = sets.extract(*pool_);
    reranked_graph.emplace(n, params_.k);
    std::atomic<std::uint64_t> rescored{0};
    simt::LaunchConfig config;
    config.scratch_bytes = params_.scratch_bytes;
    config.schedule = params_.schedule;
    config.trace_label = "sq8_rerank";
    simt::launch_warps(*pool_, n, config, &acc, [&](simt::Warp& w) {
      const auto p = static_cast<std::uint32_t>(w.id());
      if (std::binary_search(quarantined.begin(), quarantined.end(), p)) {
        return;
      }
      const auto pool_row = wide.row(p);
      const std::size_t cnt = wide.row_size(p);
      if (cnt == 0) return;
      const simt::RowScorer::Query q = exact.prepare(w, pts.row(p), {});
      w.count_read(cnt * sizeof(Neighbor));
      std::vector<std::pair<float, std::uint32_t>> scored;
      scored.reserve(cnt);
      for (std::size_t t0 = 0; t0 < cnt; t0 += simt::kWarpSize) {
        const std::size_t c =
            std::min<std::size_t>(simt::kWarpSize, cnt - t0);
        simt::Lanes<std::uint32_t> ids{};
        simt::Lanes<bool> active{};
        for (std::size_t l = 0; l < c; ++l) {
          ids[l] = pool_row[t0 + l].id;
          active[l] = true;
        }
        const simt::Lanes<float> d = exact.lanes(w, q, ids, active);
        for (std::size_t l = 0; l < c; ++l) {
          if (std::isfinite(d[l])) {
            scored.emplace_back(d[l], ids[l]);
          } else {
            ++w.stats().nonfinite_dropped;
          }
        }
      }
      rescored.fetch_add(scored.size(), std::memory_order_relaxed);
      // (dist, id) sort: deterministic ordering even under exact-distance
      // ties, matching the graph invariant.
      std::sort(scored.begin(), scored.end());
      auto out = reranked_graph->row(p);
      const std::size_t keep = std::min<std::size_t>(params_.k, scored.size());
      for (std::size_t i = 0; i < keep; ++i) {
        out[i] = Neighbor{scored[i].first, scored[i].second};
      }
      w.count_write(keep * sizeof(Neighbor));
    });
    result.candidates_reranked = rescored.load(std::memory_order_relaxed);
    result.rerank_seconds = phase.lap_s();
    cur_phase->finish(result.rerank_seconds);
  }

  cur_phase.emplace(tr, "extract", acc);

  // Phase 4: normalise into the output graph; quarantined rows get their
  // placeholder neighbors.
  result.graph =
      reranked_graph ? std::move(*reranked_graph) : sets.extract(*pool_);
  if (!quarantined.empty()) {
    fill_quarantined_rows(result.graph, quarantined);
  }
  result.extract_seconds = phase.lap_s();
  cur_phase->finish(result.extract_seconds);
  cur_phase.reset();

  if (detector) {
    detection.reset();
    result.races_detected = detector->race_count();
  }
  if (injector) {
    injection.reset();
    result.health.faults_injected = injector->injected();
  } else if (ambient != nullptr) {
    result.health.faults_injected =
        ambient->injected() - ambient_injected_before;
  }
  result.health.degraded =
      result.health.degraded || !quarantined.empty() ||
      result.health.buckets_failed > 0 ||
      result.health.refine_points_skipped > 0 || result.health.deadline_hit;
  result.effective_strategy = effective;
  result.total_seconds = total.elapsed_s();
  result.stats = acc.total();

  if (root) {
    root->arg_num("total_seconds", result.total_seconds);
    root->arg("stats", result.stats.to_json());
    root->finish();
  }
  if (own_tracer) {
    own_scope.reset();  // uninstall before the file write
    own_tracer->write_chrome_json(params_.obs.trace_path);
  }
  return result;
}

void register_build_metrics(obs::MetricsRegistry& reg, const BuildResult& r) {
  const auto gauge = [&reg](const char* name, double v, const char* help) {
    reg.gauge(name, help).set(v);
  };
  const auto counter = [&reg](const char* name, std::uint64_t v,
                              const char* help) {
    reg.counter(name, help).add(v);
  };

  gauge("wknng_build_forest_seconds", r.forest_seconds,
        "RP-forest construction wall time");
  gauge("wknng_build_leaf_seconds", r.leaf_seconds,
        "Warp-centric leaf brute-force wall time");
  gauge("wknng_build_refine_seconds", r.refine_seconds,
        "Neighbor-of-neighbor refinement wall time");
  gauge("wknng_build_rerank_seconds", r.rerank_seconds,
        "Exact fp32 rerank wall time (compression=sq8 only)");
  gauge("wknng_build_extract_seconds", r.extract_seconds,
        "Graph extraction wall time");
  gauge("wknng_build_total_seconds", r.total_seconds,
        "End-to-end build wall time");
  gauge("wknng_build_num_buckets", static_cast<double>(r.num_buckets),
        "Forest leaves processed");
  gauge("wknng_build_races_detected", static_cast<double>(r.races_detected),
        "Conflicts flagged by the race detector");

  gauge("wknng_build_degraded", r.health.degraded ? 1.0 : 0.0,
        "1 when the build output may differ from the ideal run");
  gauge("wknng_build_deadline_hit", r.health.deadline_hit ? 1.0 : 0.0,
        "1 when the soft deadline shed refinement rounds");
  gauge("wknng_build_rounds_completed",
        static_cast<double>(r.health.rounds_completed),
        "Refinement rounds actually finished");
  counter("wknng_build_buckets_retried_total", r.health.buckets_retried,
          "Leaf bucket executions re-launched");
  counter("wknng_build_buckets_failed_total", r.health.buckets_failed,
          "Leaf buckets failed after all retries");
  counter("wknng_build_buckets_degraded_total", r.health.buckets_degraded,
          "kShared buckets re-run as kTiled");
  counter("wknng_build_launches_retried_total", r.health.launches_retried,
          "Whole launches retried after allocation failure");
  counter("wknng_build_points_quarantined_total",
          r.health.points_quarantined,
          "Non-finite input rows excluded from the build");
  counter("wknng_build_refine_points_skipped_total",
          r.health.refine_points_skipped,
          "Point-rounds skipped during refinement");
  // The fault series is registered even when zero so scrapes always expose
  // whether a campaign ran.
  counter("wknng_build_faults_injected_total", r.health.faults_injected,
          "Fault-injection decisions fired during the build");

  counter("wknng_build_distance_evals_total", r.stats.distance_evals,
          "Full point-to-point distance computations");
  counter("wknng_build_flops_total", r.stats.flops,
          "Floating-point ops in distance kernels");
  counter("wknng_build_global_reads_total", r.stats.global_reads,
          "Bytes read from global memory");
  counter("wknng_build_global_writes_total", r.stats.global_writes,
          "Bytes written to global memory");
  counter("wknng_build_atomic_ops_total", r.stats.atomic_ops,
          "Completed atomic RMW operations");
  counter("wknng_build_cas_retries_total", r.stats.cas_retries,
          "Failed CAS attempts (contention)");
  counter("wknng_build_lock_acquires_total", r.stats.lock_acquires,
          "Spin-lock acquisitions");
  counter("wknng_build_lock_spins_total", r.stats.lock_spins,
          "Failed lock attempts while spinning");
  counter("wknng_build_warp_collectives_total", r.stats.warp_collectives,
          "Warp shuffles/ballots/reductions executed");
  counter("wknng_build_warps_executed_total", r.stats.warps_executed,
          "Warp tasks executed");
  counter("wknng_build_shadow_events_total", r.stats.shadow_events,
          "Race-detector shadow accesses recorded");
  counter("wknng_build_nonfinite_dropped_total", r.stats.nonfinite_dropped,
          "Candidates rejected for non-finite distance");
  gauge("wknng_build_scratch_bytes_peak",
        static_cast<double>(r.stats.scratch_bytes_peak),
        "Max per-warp scratch footprint observed");

  // Compressed-tier series: registered even for compression=none builds
  // (zeros) so scrapes always expose whether the tier ran.
  gauge("wknng_sq8_rerank_depth", static_cast<double>(r.rerank_depth_used),
        "Resolved per-point rerank depth (0 when compression=none)");
  counter("wknng_sq8_candidates_reranked_total", r.candidates_reranked,
          "Compressed-tier candidates rescored at full precision");
  // Named distinctly from obs's wknng_build_info so both can share one
  // registry (the CLI's --metrics-out export registers both).
  reg.info("wknng_build_config_info",
           {{"compression", r.sq8 != nullptr ? "sq8" : "none"},
            {"kernel_backend", kernels::ops().name}},
           "Build configuration: storage tier and dispatched kernel backend");

  // Full Stats object for JSON consumers (Tab. 3 tooling) — one source of
  // truth, rendered by Stats::to_json.
  reg.json_blob("build_stats", r.stats.to_json());
}

BuildResult build_knng(ThreadPool& pool, const FloatMatrix& points,
                       const BuildParams& params) {
  return KnngBuilder(pool, params).build(points);
}

}  // namespace wknng::core
