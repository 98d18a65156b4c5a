// wknng_cli — the full command-line front end of the library: build K-NN
// graphs from .fvecs files (or synthetic specs), with every paper knob
// exposed, optional cosine/MIPS metric reductions, quality evaluation, and
// graph export.
//
//   ./wknng_cli --input base.fvecs --k 10 --out graph.knng
//   ./wknng_cli --synthetic clusters:20000:64 --k 10 --strategy atomic
//   ./wknng_cli --input base.fvecs --metric cosine --trees 12 --refine 2 \
//               --truth gt.ivecs --report
//
// Flags (all optional unless noted):
//   --input PATH         .fvecs base file (or use --synthetic)
//   --synthetic SPEC     kind:n:dim[:seed], kind in uniform|clusters|sphere|manifold
//   --k N                neighbors per point (default 10)
//   --strategy S         basic|atomic|tiled|shared|auto (default auto)
//   --trees N            RP-forest size (default 8)
//   --leaf N             leaf size (default 64)
//   --refine N           refinement rounds (default 1)
//   --compression C      none|sq8 (default none): sq8 trains a per-dimension
//                        int8 codebook and routes candidate distances through
//                        the compressed rows, with an exact fp32 rerank
//   --rerank-depth N     sq8 only: candidates surviving to the exact rerank
//                        (0 = auto, 2k; values below k are clamped up to k)
//   --metric M           l2|cosine|ip (default l2; cosine normalises rows,
//                        ip applies the MIPS->L2 augmentation)
//   --project D          random-project input to D dims before building
//   --seed N             RNG seed (default 1234)
//   --out PATH           write the graph (WKNNG1 binary)
//   --out-ivecs PATH     write neighbor ids as .ivecs
//   --truth PATH         exact ids (.ivecs) for recall evaluation
//   --sample N           sampled self-evaluation when no truth given (default 200)
//   --tune R             auto-tune trees/refine to sampled recall >= R
//                        (overrides --trees / --refine)
//   --load PATH          load a prebuilt .knng instead of building
//   --queries PATH       answer .fvecs queries by graph search after
//                        building/loading; prints per-query timing
//   --beam N             graph-search frontier width (default 48)
//   --out-results PATH   write per-query neighbor ids as .ivecs
//   --report             print graph quality metrics (components, degrees, ...)
//   --threads N          worker threads (default: hardware)
//   --deadline S         soft build budget in seconds (0 = none); when hit,
//                        refinement stops cleanly and the partial graph is kept
//   --checkpoint PATH    write a resumable checkpoint after the leaf pass and
//                        every refinement round
//   --resume PATH        resume a build from a checkpoint (same params + data)
//   --retries N          bucket/launch retries before recording a failure
//                        (default 3)
//   --shards N           build through the fault-tolerant sharded
//                        orchestrator with N shards (0 = monolithic build,
//                        the default); the merged+stitched graph feeds every
//                        downstream flag (--out, --truth, --serve, ...)
//   --shard-workers N    concurrent shard-build workers (default 2)
//   --shard-retries N    per-shard retry budget after worker losses
//                        (default 2; a loss-immune salvage attempt still
//                        runs before a shard is quarantined)
//   --speculate          launch a speculative twin for straggler jobs
//                        (first completion wins, deterministically)
//   --shard-loss SPEC    deterministic worker-loss campaign,
//                        site:seed[:probability] (same site names as
//                        --inject); losses fire at slice boundaries only,
//                        so retried builds stay bit-identical
//   --shard-stall        injected losses stall silently (heartbeats stop)
//                        instead of raising; requires --shard-heartbeat-ms
//                        or --speculate to declare them
//   --shard-heartbeat-ms N  missed-heartbeat watchdog timeout (0 = off)
//   --shard-partitioner P   kmeans|random corpus split (default kmeans)
//   --shard-artifacts PREFIX  per-shard checkpoint/manifest naming root
//                        (default: <--out>.shards, or wknng_cli.shards)
//   --shard-resume       resume a killed campaign from its manifest and
//                        published per-shard checkpoints
//   --shard-top-p N      shards probed per query when routing --queries
//                        through the sharded index (default 2)
//   --inject SPEC        deterministic fault injection campaign,
//                        site:seed[:probability[:max_faults]] with site in
//                        scratch-alloc|warp-abort|lock-timeout|
//                        corrupt-distance|launch-alloc
//   --dynamic-dir PATH   run the mutable index (src/dynamic) instead of a
//                        one-shot build: the base graph + WKNNGCP1 checkpoint
//                        + write-ahead delta log live in PATH. Combine with
//                        --stop-at-version for deterministic churn, --serve
//                        for live serving under writes, --out to dump the
//                        final graph (what the CI crash-replay md5 compares)
//   --dynamic-recover    recover the dynamic index from --dynamic-dir
//                        (checkpoint + WAL replay; a SIGKILL-torn tail is
//                        discarded) instead of building fresh
//   --stop-at-version V  churn the dynamic index with counter-seeded
//                        insert/delete/repair/compact steps — one version
//                        bump per step, each a pure function of (seed,
//                        version) — until the published version reaches V.
//                        The same V lands on the same graph whether the run
//                        was fresh, killed and recovered, or replayed
//   --serve              serve queries through the micro-batching engine and
//                        a deterministic load generator instead of a one-shot
//                        search pass (query vectors: --queries file, or
//                        perturbed base points when absent)
//   --serve-mutate F     fraction of loadgen request slots that mutate the
//                        dynamic index instead of reading (requires
//                        --dynamic-dir; counter-hashed per-slot, so the mix
//                        is a pure function of the config)
//   --serve-delete-frac F  of the mutation slots, the delete share
//                        (default 0.25; the rest are inserts)
//   --serve-requests N   requests the load generator issues (default 1000)
//   --serve-mode M       closed|open (default closed): closed-loop fixed
//                        concurrency, or open-loop Poisson arrivals
//   --serve-rate QPS     open-loop offered load (default 10000)
//   --serve-concurrency N closed-loop submitter threads (default 4)
//   --serve-batch N      engine micro-batch size cap (default 32)
//   --serve-deadline-us N per-request deadline, 0 = none (default 0)
//   --serve-workers N    engine batch-executor threads (default 2)
//   --serve-metrics PATH write the engine's metrics JSON here
//   --optimize-serve     run queries over the optimized serving layout
//                        (occlusion-pruned, cache-blocked CSR relayout,
//                        src/opt), attached to the snapshot before serving;
//                        with --dynamic-dir the layout follows the
//                        published version (rebuilt or reused per the
//                        staleness policy). --out then writes the layout as
//                        a WKNNGOP1 trailer on the graph file
//   --patience N         serving: stop after N frontier hops without a
//                        result improvement (0 = off)
//   --visit-budget B     serving: per-query visited-node cap —
//                        a number for a fixed cap, or "auto" for the
//                        learned ladder with capped-query escalation
//                        (0 = unlimited, the default)
//   --slo D:R            serve with the online SLO tracker: p99 latency
//                        objective D us (0 = off) and audited-recall
//                        objective R (0 = off). Windowed aggregates, burn
//                        rates, and the alert log land in --slo-report and
//                        the wknng_slo_* registry gauges
//   --audit-fraction F   sample this share of answered queries (by counter
//                        hash of the request tag) for exact re-answering on
//                        a background thread; the rolling recall estimate
//                        feeds the SLO recall objective
//   --flight-log PATH    install the flight recorder: every query leaves a
//                        black-box record in a bounded ring, and breaching
//                        queries (slow / shed / timeout / failed /
//                        low-recall) are appended to PATH as JSON lines
//                        cross-linked to serve-batch trace span ids
//   --slo-report PATH    write the SLO plane's end-of-run JSON report
//                        (tracker windows + burn state, audit estimate,
//                        flight counters) to PATH
//   --trace-out PATH     record a span trace of the run (build phases,
//                        kernel launches, serve batches) and write it as
//                        Chrome trace-event JSON — load in Perfetto or
//                        chrome://tracing (WKNNG_TRACE=<path> does the same
//                        for the build only)
//   --trace-warps        include per-warp-group spans in the trace (verbose)
//   --metrics-out PATH   export the central metrics registry (build info +
//                        timings + work counters + fault counts, and the
//                        serve series when --serve ran) to this path
//   --metrics-format F   json|prom (default prom): registry export format
//   --version            print version, compiler, kernel backend, and
//                        debugging knobs, then exit
//
// Exit codes: 0 = ok, 1 = input/build error, 2 = usage,
//             3 = build completed degraded (see the health report).

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "wknng.hpp"

namespace {

using namespace wknng;

struct Options {
  std::string input;
  std::string synthetic;
  std::size_t k = 10;
  std::string strategy = "auto";
  std::size_t trees = 8;
  std::size_t leaf = 64;
  std::size_t refine = 1;
  std::string compression = "none";  // none|sq8 compressed storage tier
  std::size_t rerank_depth = 0;      // sq8 exact-rerank depth (0 = auto)
  std::string metric = "l2";
  std::size_t project = 0;
  std::uint64_t seed = 1234;
  std::string out;
  std::string out_ivecs;
  std::string truth;
  std::size_t sample = 200;
  bool report = false;
  std::size_t threads = 0;
  double tune = 0.0;
  std::string load;          // read a prebuilt graph instead of building
  std::string queries;       // .fvecs of out-of-sample queries to answer
  std::size_t beam = 48;     // graph-search frontier width
  std::string out_results;   // .ivecs of per-query neighbor ids
  double deadline = 0.0;     // soft build budget in seconds (0 = none)
  std::string checkpoint;    // write resumable checkpoints here
  std::string resume;        // resume a build from this checkpoint
  std::size_t retries = 3;   // bucket/launch retries before giving up
  std::string inject;        // fault-injection spec (site:seed[:p[:max]])
  std::size_t shards = 0;            // sharded build when > 0
  std::size_t shard_workers = 2;     // concurrent shard-build workers
  std::size_t shard_retries = 2;     // per-shard retry budget
  bool speculate = false;            // straggler twins
  std::string shard_loss;            // worker-loss spec (site:seed[:p])
  bool shard_stall = false;          // losses stall instead of raising
  std::uint64_t shard_heartbeat_ms = 0;  // watchdog timeout (0 = off)
  std::string shard_partitioner = "kmeans";  // kmeans|random
  std::string shard_artifacts;       // checkpoint/manifest prefix
  bool shard_resume = false;         // resume campaign from manifest
  std::size_t shard_top_p = 2;       // router fan-out for --queries
  std::string dynamic_dir;             // mutable-index mode when non-empty
  bool dynamic_recover = false;        // recover from checkpoint + WAL
  std::uint64_t stop_at_version = 0;   // churn until this version (0 = none)
  double serve_mutate = 0.0;           // loadgen write-mix fraction
  double serve_delete_frac = 0.25;     // delete share of the write mix
  bool serve = false;                  // run the serving engine + loadgen
  std::size_t serve_requests = 1000;   // loadgen request count
  std::string serve_mode = "closed";   // closed|open
  double serve_rate = 10000.0;         // open-loop offered qps
  std::size_t serve_concurrency = 4;   // closed-loop submitter threads
  std::size_t serve_batch = 32;        // engine max_batch
  std::uint64_t serve_deadline_us = 0; // per-request deadline (0 = none)
  std::size_t serve_workers = 2;       // engine executor threads
  std::string serve_metrics;           // metrics JSON output path
  bool optimize_serve = false;         // serve over the optimized layout
  std::size_t patience = 0;            // early-termination hop patience
  std::size_t visit_budget = 0;        // fixed per-query visit cap (0 = off)
  bool budget_auto = false;            // --visit-budget auto: learned ladder
  std::string slo;                     // "D:R" latency/recall objectives
  double audit_fraction = 0.0;         // sampled recall-audit share
  std::string flight_log;              // slow-query JSON-lines sink
  std::string slo_report;              // end-of-run SLO report path
  std::string trace_out;               // Chrome trace-event JSON output path
  bool trace_warps = false;            // per-warp-group spans in the trace
  std::string metrics_out;             // central registry export path
  std::string metrics_format = "prom"; // json|prom
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--input base.fvecs | --synthetic kind:n:dim[:seed])"
               " [--k N] [--strategy basic|atomic|tiled|shared|auto] [--trees N]"
               " [--leaf N] [--refine N] [--compression none|sq8]"
               " [--rerank-depth N] [--metric l2|cosine|ip]"
               " [--project D] [--seed N] [--out g.knng]"
               " [--out-ivecs g.ivecs] [--truth gt.ivecs] [--sample N]"
               " [--report] [--threads N] [--deadline S] [--checkpoint PATH]"
               " [--resume PATH] [--retries N] [--inject site:seed[:p[:max]]]"
               " [--shards N] [--shard-workers N] [--shard-retries N]"
               " [--speculate] [--shard-loss site:seed[:p]] [--shard-stall]"
               " [--shard-heartbeat-ms N] [--shard-partitioner kmeans|random]"
               " [--shard-artifacts PREFIX] [--shard-resume] [--shard-top-p N]"
               " [--dynamic-dir PATH] [--dynamic-recover] [--stop-at-version V]"
               " [--serve-mutate F] [--serve-delete-frac F]"
               " [--serve] [--serve-requests N] [--serve-mode closed|open]"
               " [--serve-rate QPS] [--serve-concurrency N] [--serve-batch N]"
               " [--serve-deadline-us N]"
               " [--serve-workers N] [--serve-metrics PATH]"
               " [--optimize-serve] [--patience N] [--visit-budget N|auto]"
               " [--slo D:R] [--audit-fraction F] [--flight-log PATH]"
               " [--slo-report PATH]"
               " [--trace-out PATH] [--trace-warps] [--metrics-out PATH]"
               " [--metrics-format json|prom] [--version]\n"
               "exit codes: 0 ok, 1 error, 2 usage, 3 degraded build\n",
               argv0);
  return 2;
}

std::optional<Options> parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      WKNNG_CHECK_MSG(i + 1 < argc, "missing value for " << flag);
      return argv[++i];
    };
    if (flag == "--input") opt.input = value();
    else if (flag == "--synthetic") opt.synthetic = value();
    else if (flag == "--k") opt.k = std::strtoull(value(), nullptr, 10);
    else if (flag == "--strategy") opt.strategy = value();
    else if (flag == "--trees") opt.trees = std::strtoull(value(), nullptr, 10);
    else if (flag == "--leaf") opt.leaf = std::strtoull(value(), nullptr, 10);
    else if (flag == "--refine") opt.refine = std::strtoull(value(), nullptr, 10);
    else if (flag == "--compression") opt.compression = value();
    else if (flag == "--rerank-depth") opt.rerank_depth = std::strtoull(value(), nullptr, 10);
    else if (flag == "--metric") opt.metric = value();
    else if (flag == "--project") opt.project = std::strtoull(value(), nullptr, 10);
    else if (flag == "--seed") opt.seed = std::strtoull(value(), nullptr, 10);
    else if (flag == "--out") opt.out = value();
    else if (flag == "--out-ivecs") opt.out_ivecs = value();
    else if (flag == "--truth") opt.truth = value();
    else if (flag == "--sample") opt.sample = std::strtoull(value(), nullptr, 10);
    else if (flag == "--tune") opt.tune = std::strtod(value(), nullptr);
    else if (flag == "--load") opt.load = value();
    else if (flag == "--queries") opt.queries = value();
    else if (flag == "--beam") opt.beam = std::strtoull(value(), nullptr, 10);
    else if (flag == "--out-results") opt.out_results = value();
    else if (flag == "--report") opt.report = true;
    else if (flag == "--threads") opt.threads = std::strtoull(value(), nullptr, 10);
    else if (flag == "--deadline") opt.deadline = std::strtod(value(), nullptr);
    else if (flag == "--checkpoint") opt.checkpoint = value();
    else if (flag == "--resume") opt.resume = value();
    else if (flag == "--retries") opt.retries = std::strtoull(value(), nullptr, 10);
    else if (flag == "--inject") opt.inject = value();
    else if (flag == "--shards") opt.shards = std::strtoull(value(), nullptr, 10);
    else if (flag == "--shard-workers") opt.shard_workers = std::strtoull(value(), nullptr, 10);
    else if (flag == "--shard-retries") opt.shard_retries = std::strtoull(value(), nullptr, 10);
    else if (flag == "--speculate") opt.speculate = true;
    else if (flag == "--shard-loss") opt.shard_loss = value();
    else if (flag == "--shard-stall") opt.shard_stall = true;
    else if (flag == "--shard-heartbeat-ms") opt.shard_heartbeat_ms = std::strtoull(value(), nullptr, 10);
    else if (flag == "--shard-partitioner") opt.shard_partitioner = value();
    else if (flag == "--shard-artifacts") opt.shard_artifacts = value();
    else if (flag == "--shard-resume") opt.shard_resume = true;
    else if (flag == "--shard-top-p") opt.shard_top_p = std::strtoull(value(), nullptr, 10);
    else if (flag == "--dynamic-dir") opt.dynamic_dir = value();
    else if (flag == "--dynamic-recover") opt.dynamic_recover = true;
    else if (flag == "--stop-at-version") opt.stop_at_version = std::strtoull(value(), nullptr, 10);
    else if (flag == "--serve-mutate") opt.serve_mutate = std::strtod(value(), nullptr);
    else if (flag == "--serve-delete-frac") opt.serve_delete_frac = std::strtod(value(), nullptr);
    else if (flag == "--serve") opt.serve = true;
    else if (flag == "--serve-requests") opt.serve_requests = std::strtoull(value(), nullptr, 10);
    else if (flag == "--serve-mode") opt.serve_mode = value();
    else if (flag == "--serve-rate") opt.serve_rate = std::strtod(value(), nullptr);
    else if (flag == "--serve-concurrency") opt.serve_concurrency = std::strtoull(value(), nullptr, 10);
    else if (flag == "--serve-batch") opt.serve_batch = std::strtoull(value(), nullptr, 10);
    else if (flag == "--serve-deadline-us") opt.serve_deadline_us = std::strtoull(value(), nullptr, 10);
    else if (flag == "--serve-workers") opt.serve_workers = std::strtoull(value(), nullptr, 10);
    else if (flag == "--serve-metrics") opt.serve_metrics = value();
    else if (flag == "--optimize-serve") opt.optimize_serve = true;
    else if (flag == "--patience") opt.patience = std::strtoull(value(), nullptr, 10);
    else if (flag == "--visit-budget") {
      const std::string v = value();
      if (v == "auto") opt.budget_auto = true;
      else opt.visit_budget = std::strtoull(v.c_str(), nullptr, 10);
    }
    else if (flag == "--slo") opt.slo = value();
    else if (flag == "--audit-fraction") opt.audit_fraction = std::strtod(value(), nullptr);
    else if (flag == "--flight-log") opt.flight_log = value();
    else if (flag == "--slo-report") opt.slo_report = value();
    else if (flag == "--trace-out") opt.trace_out = value();
    else if (flag == "--trace-warps") opt.trace_warps = true;
    else if (flag == "--metrics-out") opt.metrics_out = value();
    else if (flag == "--metrics-format") opt.metrics_format = value();
    else return std::nullopt;
  }
  if (opt.input.empty() == opt.synthetic.empty()) return std::nullopt;
  return opt;
}

FloatMatrix load_points(const Options& opt) {
  if (!opt.input.empty()) return data::read_fvecs(opt.input);
  // kind:n:dim[:seed]
  data::DatasetSpec spec;
  std::string s = opt.synthetic;
  auto next_field = [&]() {
    const auto pos = s.find(':');
    std::string field = s.substr(0, pos);
    s = pos == std::string::npos ? "" : s.substr(pos + 1);
    return field;
  };
  const std::string kind = next_field();
  if (kind == "uniform") spec.kind = data::DatasetKind::kUniform;
  else if (kind == "clusters") spec.kind = data::DatasetKind::kClusters;
  else if (kind == "sphere") spec.kind = data::DatasetKind::kSphere;
  else if (kind == "manifold") spec.kind = data::DatasetKind::kManifold;
  else throw Error("unknown synthetic kind: " + kind);
  spec.n = std::strtoull(next_field().c_str(), nullptr, 10);
  spec.dim = std::strtoull(next_field().c_str(), nullptr, 10);
  if (!s.empty()) spec.seed = std::strtoull(next_field().c_str(), nullptr, 10);
  std::printf("dataset: %s\n", data::describe(spec).c_str());
  return data::generate(spec);
}

/// One deterministic churn step: advances the dynamic index by exactly one
/// version. The op (insert / delete / repair / compact) and its operands are
/// drawn from an Rng stream keyed by (seed, current version), so steps depend
/// only on the state they run on — a recovered index killed at any point
/// continues the identical schedule and lands on the identical graph, which
/// is what the CI crash-replay md5 check compares.
void churn_step(dynamic::DynamicKnng& dyn, const FloatMatrix& base,
                std::uint64_t seed) {
  constexpr std::uint64_t kChurnStream = 0xC4021500000000ULL;
  const std::uint64_t v = dyn.version();
  Rng rng(seed, kChurnStream + v);

  const auto insert_rows = [&] {
    const std::size_t count = 1 + rng.next_below(3);
    FloatMatrix batch(count, base.cols());
    for (std::size_t i = 0; i < count; ++i) {
      const auto src = base.row(rng.next_below(base.rows()));
      auto dst = batch.row(i);
      for (std::size_t d = 0; d < base.cols(); ++d) {
        dst[d] = src[d] + 0.02f * rng.next_gaussian();
      }
    }
    dyn.insert(batch);
  };

  const std::uint64_t roll = rng.next_below(10);
  if (roll < 6) {
    insert_rows();
    return;
  }
  if (roll < 8) {
    const dynamic::DynamicState st = dyn.state();
    std::vector<std::uint32_t> victims;
    for (int j = 0; j < 3; ++j) {
      victims.push_back(
          static_cast<std::uint32_t>(rng.next_below(st.next_external)));
    }
    if (dyn.erase(victims) > 0) return;
  } else if (roll == 8) {
    if (dyn.repair() > 0) return;
  } else {
    if (dyn.state().tombstone_ratio >= 0.05 && dyn.compact()) return;
  }
  // The drawn op was a no-op (nothing deletable/dirty/compactable) and did
  // not bump the version; fall back to an insert so every step advances by
  // exactly one — the alignment the schedule's version keying relies on.
  insert_rows();
}

/// --slo D:R → tracker options. D = the p99 latency objective in us, R = the
/// audited-recall objective; either may be 0 to leave that signal off.
obs::SloTrackerOptions parse_slo_spec(const std::string& spec) {
  const auto pos = spec.find(':');
  WKNNG_CHECK_MSG(pos != std::string::npos,
                  "--slo expects D:R (p99_us:min_recall), got " << spec);
  obs::SloTrackerOptions so;
  so.objective.p99_latency_us =
      std::strtod(spec.substr(0, pos).c_str(), nullptr);
  so.objective.min_recall = std::strtod(spec.substr(pos + 1).c_str(), nullptr);
  return so;
}

/// Applies the quality-plane flags to a serve config. The audit sampler
/// inherits the run's seed and k so its decisions and its exact re-answers
/// line up with the workload being served.
void configure_quality_plane(serve::ServeOptions& so, const Options& opt) {
  if (!opt.slo.empty()) {
    so.slo = true;
    so.slo_options = parse_slo_spec(opt.slo);
  }
  if (opt.audit_fraction > 0.0) {
    so.audit.fraction = opt.audit_fraction;
    so.audit.seed = opt.seed;
    so.audit.k = opt.k;
  }
}

/// End-of-run SLO report — the artifact scripts/slo_report.py renders. Must
/// run while the engine (and any ambient flight recorder) is still alive.
void write_slo_report(const std::string& path,
                      const serve::ServeEngine& engine) {
  std::ostringstream os;
  os << "{\"slo\":";
  if (const obs::SloTracker* t = engine.slo_tracker()) {
    os << t->to_json();
  } else {
    os << "null";
  }
  os << ",\"audit\":";
  if (const obs::RecallAuditor* a = engine.auditor()) {
    const obs::AuditEstimate est = a->estimate();
    const obs::AuditEstimate life = a->lifetime_estimate();
    os << "{\"fraction\":" << a->options().fraction
       << ",\"submitted\":" << a->submitted()
       << ",\"completed\":" << a->completed()
       << ",\"dropped\":" << a->dropped()
       << ",\"window_recall\":" << est.recall
       << ",\"window_ci_halfwidth\":" << est.ci_halfwidth
       << ",\"window_audited\":" << est.audited
       << ",\"lifetime_recall\":" << life.recall
       << ",\"lifetime_ci_halfwidth\":" << life.ci_halfwidth << "}";
  } else {
    os << "null";
  }
  os << ",\"flight\":";
  if (const obs::FlightRecorder* f = obs::active_flight_recorder()) {
    os << "{\"recorded\":" << f->recorded()
       << ",\"promoted\":" << f->promoted() << ",\"capacity\":"
       << f->options().capacity << ",\"log_path\":\""
       << f->options().log_path << "\"}";
  } else {
    os << "null";
  }
  os << "}";
  std::ofstream out(path);
  WKNNG_CHECK_MSG(out.good(), "cannot write " << path);
  out << os.str() << "\n";
  std::printf("wrote %s\n", path.c_str());
}

/// Writes each row's first `k` neighbor ids as .ivecs (-1 for empty slots).
void write_ids(const std::string& path, const KnnGraph& graph, std::size_t k) {
  Matrix<std::int32_t> ids(graph.num_points(), k);
  for (std::size_t i = 0; i < graph.num_points(); ++i) {
    auto row = graph.row(i);
    for (std::size_t s = 0; s < k; ++s) {
      ids(i, s) = row[s].id == KnnGraph::kInvalid
                      ? -1
                      : static_cast<std::int32_t>(row[s].id);
    }
  }
  data::write_ivecs(path, ids);
  std::printf("wrote %s\n", path.c_str());
}

/// --out: the graph, plus the serving layout as a WKNNGOP1 trailer when the
/// served snapshot carries one. Plain read_knng still sees just the graph,
/// so the CI replay md5 (which never passes --optimize-serve) is unaffected.
void write_graph(const std::string& path, const KnnGraph& graph,
                 const opt::ServingGraph* layout) {
  if (layout != nullptr) {
    data::write_knng_serving(path, graph, *layout);
  } else {
    data::write_knng(path, graph);
  }
  std::printf("wrote %s\n", path.c_str());
}

/// Query vectors: the --queries file, or perturbed base points (the
/// standard held-out proxy) when none is given.
FloatMatrix load_queries(const Options& opt, const FloatMatrix& points) {
  if (!opt.queries.empty()) {
    FloatMatrix queries = data::read_fvecs(opt.queries);
    WKNNG_CHECK_MSG(queries.cols() == points.cols(),
                    "query dim " << queries.cols() << " != base dim "
                                 << points.cols());
    return queries;
  }
  const std::size_t nq = std::min<std::size_t>(256, points.rows());
  FloatMatrix queries(nq, points.cols());
  Rng rng(opt.seed ^ 0x5E27EULL);
  for (std::size_t qi = 0; qi < nq; ++qi) {
    const auto src = points.row(rng.next_below(points.rows()));
    auto dst = queries.row(qi);
    for (std::size_t d = 0; d < points.cols(); ++d) {
      dst[d] = src[d] + 0.02f * rng.next_gaussian();
    }
  }
  return queries;
}

/// --metrics-out: build info, the run's own series (`add_series`: build or
/// dynamic-index metrics), and the serve series when an engine ran. Called
/// inside the engine's lifetime so the linked live instruments render.
void export_registry(
    const Options& opt,
    const std::function<void(obs::MetricsRegistry&)>& add_series,
    const serve::ServeEngine* engine) {
  if (opt.metrics_out.empty()) return;
  obs::MetricsRegistry reg;
  obs::register_build_info(reg, obs::build_info());
  add_series(reg);
  if (engine != nullptr) {
    serve::register_metrics(reg, engine->metrics());
    if (engine->slo_tracker() != nullptr) {
      obs::register_slo_metrics(reg, *engine->slo_tracker());
    }
    if (engine->auditor() != nullptr) {
      obs::register_audit_metrics(reg, *engine->auditor());
    }
  }
  std::ofstream out(opt.metrics_out);
  WKNNG_CHECK_MSG(out.good(), "cannot write " << opt.metrics_out);
  if (opt.metrics_format == "json") {
    out << reg.to_json() << "\n";
  } else {
    out << reg.to_prometheus();
  }
  std::printf("wrote %s\n", opt.metrics_out.c_str());
}

/// --serve, for a static graph and the dynamic index alike: pumps the
/// deterministic load generator through the micro-batching engine over
/// `snap`, then writes the serve artifacts while the engine is alive.
/// `hooks` carry the dynamic index's write mix; `publish_to`, when set,
/// points the index's publications at the engine for the run.
void run_serve(ThreadPool& pool, const Options& opt, const FloatMatrix& points,
               std::shared_ptr<const serve::GraphSnapshot> snap,
               const std::function<void(obs::MetricsRegistry&)>& add_series,
               const serve::MutationHooks& hooks = {},
               std::atomic<serve::ServeEngine*>* publish_to = nullptr) {
  const FloatMatrix queries = load_queries(opt, points);

  serve::ServeOptions so;
  so.max_batch = opt.serve_batch;
  so.workers = opt.serve_workers;
  so.default_deadline_us = opt.serve_deadline_us;
  so.search.k = opt.k;
  so.search.beam = opt.beam;
  so.search.seed = opt.seed;
  so.search.rerank_depth = opt.rerank_depth;
  so.search.patience = opt.patience;
  so.search.visit_budget = opt.visit_budget;
  so.adaptive_budget = opt.budget_auto;
  configure_quality_plane(so, opt);
  serve::ServeEngine engine(pool, so, std::move(snap));
  if (publish_to != nullptr) publish_to->store(&engine);

  serve::LoadGenConfig cfg;
  cfg.mode = opt.serve_mode == "open" ? serve::LoadGenConfig::Mode::kOpen
                                      : serve::LoadGenConfig::Mode::kClosed;
  cfg.seed = opt.seed;
  cfg.requests = opt.serve_requests;
  cfg.rate_qps = opt.serve_rate;
  cfg.concurrency = opt.serve_concurrency;
  cfg.mutate_fraction = opt.serve_mutate;
  cfg.delete_fraction = opt.serve_delete_frac;

  std::printf("serving: mode=%s requests=%zu queries=%zu batch=%zu "
              "workers=%zu deadline=%lluus mutate=%.2f (deletes %.2f)\n",
              opt.serve_mode.c_str(), cfg.requests, queries.rows(),
              so.max_batch, so.workers,
              static_cast<unsigned long long>(so.default_deadline_us),
              cfg.mutate_fraction, cfg.delete_fraction);
  const serve::LoadGenReport rep = run_load(engine, queries, cfg, hooks);
  engine.stop();
  if (publish_to != nullptr) publish_to->store(nullptr);
  std::printf("loadgen: %s\n", rep.to_json().c_str());
  if (!opt.slo_report.empty()) write_slo_report(opt.slo_report, engine);
  const std::string metrics_json = engine.metrics_json();
  if (!opt.serve_metrics.empty()) {
    std::ofstream out(opt.serve_metrics);
    WKNNG_CHECK_MSG(out.good(), "cannot write " << opt.serve_metrics);
    out << metrics_json << "\n";
    std::printf("wrote %s\n", opt.serve_metrics.c_str());
  } else {
    std::printf("metrics: %s\n", metrics_json.c_str());
  }
  export_registry(opt, add_series, &engine);
}

/// Mutable-index mode: fresh build or checkpoint+WAL recovery, optional
/// counter-seeded churn to --stop-at-version, optional serving (with a
/// write mix) on top, and a final graph dump for replay comparison.
void run_dynamic(ThreadPool& pool, const FloatMatrix& points,
                 const core::BuildParams& params, const Options& opt) {
  dynamic::DynamicParams dp;
  // The CLI steps the lifecycle itself (churn_step calls repair/compact
  // explicitly), so threshold-driven inline maintenance stays off and every
  // mutation is exactly one version bump.
  dp.auto_maintain = false;
  // Under --optimize-serve the *index* attaches the layout to every published
  // snapshot (rebuild-or-reuse per the staleness policy).
  dp.optimize = opt.optimize_serve;
  std::atomic<serve::ServeEngine*> engine_ptr{nullptr};
  dp.on_publish = [&engine_ptr](auto snap) {
    if (auto* e = engine_ptr.load()) e->publish(std::move(snap));
  };

  std::unique_ptr<dynamic::DynamicKnng> dyn;
  if (opt.dynamic_recover) {
    dyn = std::make_unique<dynamic::DynamicKnng>(
        dynamic::DynamicKnng::Recover{}, pool, params, points,
        opt.dynamic_dir, dp);
    std::printf("dynamic: recovered %s at version %llu%s\n",
                opt.dynamic_dir.c_str(),
                static_cast<unsigned long long>(dyn->version()),
                dyn->replay_torn_tail() ? " (torn tail discarded)" : "");
  } else {
    dyn = std::make_unique<dynamic::DynamicKnng>(pool, params, points,
                                                 opt.dynamic_dir, dp);
    std::printf("dynamic: fresh base in %s (version 1, %zu rows)\n",
                opt.dynamic_dir.c_str(), points.rows());
  }

  while (opt.stop_at_version > 0 && dyn->version() < opt.stop_at_version) {
    churn_step(*dyn, points, opt.seed);
  }

  const auto add_series = [&](obs::MetricsRegistry& reg) {
    dynamic::register_metrics(reg, dyn->metrics());
  };
  if (opt.serve) {
    serve::MutationHooks hooks;
    hooks.insert = [&](std::size_t i) {
      FloatMatrix one(1, points.cols());
      const auto src = points.row(i % points.rows());
      auto dst = one.row(0);
      for (std::size_t d = 0; d < points.cols(); ++d) {
        dst[d] = src[d] + 0.03f * static_cast<float>((i % 7) + 1);
      }
      dyn->insert(one);
    };
    hooks.erase = [&](std::size_t i) {
      dyn->erase(std::vector<std::uint32_t>{
          static_cast<std::uint32_t>(i % points.rows())});
    };
    run_serve(pool, opt, points, dyn->snapshot(), add_series, hooks,
              &engine_ptr);
  } else {
    export_registry(opt, add_series, nullptr);
  }

  const dynamic::DynamicState st = dyn->state();
  std::printf("dynamic state: version=%llu total=%zu live=%zu tombstones=%zu "
              "dirty=%zu next_external=%llu\n",
              static_cast<unsigned long long>(st.version), st.total_rows,
              st.live_rows, st.tombstones, st.dirty_rows,
              static_cast<unsigned long long>(st.next_external));
  std::printf("dynamic metrics: %s\n", dyn->metrics().to_json().c_str());

  if (!opt.out.empty()) {
    const auto snap = dyn->snapshot();
    write_graph(opt.out, snap->graph, snap->serving_layout());
  }
}

}  // namespace

int main(int argc, char** argv) {
  // --version works without an input spec, so it is resolved before parse.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--version") == 0) {
      try {
        const obs::BuildInfo info = obs::build_info();
        std::printf("wknng %s (%s)\n", info.version.c_str(),
                    info.git_describe.c_str());
        std::printf("  compiler:       %s\n", info.compiler.c_str());
        std::printf("  kernel backend: %s\n", info.kernel_backend.c_str());
        std::printf("  sanitize build: %s\n", info.sanitize ? "yes" : "no");
        std::printf("  env knobs:      WKNNG_CHECK_RACES=%s"
                    " WKNNG_INJECT_FAULTS=%s WKNNG_TRACE=%s\n",
                    info.race_env.empty() ? "-" : info.race_env.c_str(),
                    info.fault_env.empty() ? "-" : info.fault_env.c_str(),
                    info.trace_env.empty() ? "-" : info.trace_env.c_str());
        return 0;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
      }
    }
  }

  std::optional<Options> opt = parse(argc, argv);
  if (!opt) return usage(argv[0]);
  if (opt->metrics_format != "prom" && opt->metrics_format != "json") {
    std::fprintf(stderr, "error: --metrics-format must be json or prom\n");
    return 2;
  }

  bool degraded = false;
  try {
    // Span tracing for the whole run (build + search/serve). The builder
    // would own a tracer for WKNNG_TRACE=<path>; an explicit --trace-out
    // installs one here so serve batches and searches are captured too.
    std::optional<obs::Tracer> tracer;
    std::optional<obs::ScopedTracing> tracing;
    if (!opt->trace_out.empty()) {
      tracer.emplace(opt->trace_warps);
      tracing.emplace(*tracer);
    }
    // Ambient flight recorder: installed for the whole run so every serve
    // completion leaves a black-box record and breaching queries land in the
    // JSON-lines log. Promotion thresholds inherit the --slo objectives.
    std::optional<obs::FlightRecorder> flight;
    std::optional<obs::ScopedFlightRecording> flight_scope;
    if (!opt->flight_log.empty()) {
      obs::FlightOptions fo;
      fo.log_path = opt->flight_log;
      if (!opt->slo.empty()) {
        const obs::SloTrackerOptions st = parse_slo_spec(opt->slo);
        fo.slow_latency_us = st.objective.p99_latency_us;
        fo.low_recall = st.objective.min_recall;
      }
      flight.emplace(fo);
      flight_scope.emplace(*flight);
    }
    // Every run, dynamic or one-shot, ends by flushing the flight log and
    // serialising the trace.
    const auto close_run = [&] {
      if (flight) {
        flight->flush();
        std::printf("flight: %llu recorded, %llu promoted to %s\n",
                    static_cast<unsigned long long>(flight->recorded()),
                    static_cast<unsigned long long>(flight->promoted()),
                    opt->flight_log.c_str());
      }
      if (tracer) {
        tracing.reset();  // uninstall before serialising
        tracer->write_chrome_json(opt->trace_out);
        std::printf("wrote %s (%zu trace events)\n", opt->trace_out.c_str(),
                    tracer->event_count());
      }
    };
    if (opt->serve_mode != "closed" && opt->serve_mode != "open") {
      throw Error("unknown serve mode: " + opt->serve_mode);
    }
    FloatMatrix points = load_points(*opt);
    std::printf("loaded %zu points x %zu dims\n", points.rows(), points.cols());

    // Metric reductions (DESIGN.md: the kernels are L2-only, like the paper;
    // cosine and inner product arrive via data transforms).
    if (opt->metric == "cosine") {
      data::normalize_rows(points);
      std::printf("metric: cosine (rows normalised)\n");
    } else if (opt->metric == "ip") {
      points = data::mips_augment_base(points, data::max_row_norm(points));
      std::printf("metric: inner product (MIPS->L2 augmentation, dim now %zu)\n",
                  points.cols());
    } else if (opt->metric != "l2") {
      throw Error("unknown metric: " + opt->metric);
    }
    if (opt->project > 0 && opt->project < points.cols()) {
      points = data::random_project(points, opt->project, opt->seed ^ 0xA5A5);
      std::printf("random-projected to %zu dims\n", points.cols());
    }

    ThreadPool pool(opt->threads);
    core::BuildParams params;
    params.k = opt->k;
    params.strategy = opt->strategy == "auto"
                          ? core::recommended_strategy(points.cols())
                          : core::strategy_from_name(opt->strategy);
    params.num_trees = opt->trees;
    params.leaf_size = opt->leaf;
    params.refine_iters = opt->refine;
    params.compression = core::compression_from_name(opt->compression);
    params.rerank_depth = opt->rerank_depth;
    params.seed = opt->seed;
    params.deadline_seconds = opt->deadline;
    params.checkpoint_path = opt->checkpoint;
    params.max_bucket_retries = opt->retries;
    if (!opt->inject.empty()) {
      params.faults = simt::fault_spec_from_string(opt->inject);
    }

    // Mutable-index mode short-circuits the one-shot pipeline: the dynamic
    // subsystem owns build/recover, churn, serving, and the graph dump.
    if (!opt->dynamic_dir.empty()) {
      run_dynamic(pool, points, params, *opt);
      close_run();
      return 0;
    }
    WKNNG_CHECK_MSG(opt->serve_mutate == 0.0,
                    "--serve-mutate needs --dynamic-dir (a mutable index)");

    if (opt->tune > 0.0) {
      tuner::TuneOptions topt;
      topt.target_recall = opt->tune;
      topt.sample = opt->sample;
      const tuner::TuneResult tuned = tuner::tune_wknng(pool, points, params, topt);
      params = tuned.params;
      std::printf("tuned to recall %.3f (target %.3f, %zu configs, %s): "
                  "trees=%zu refine=%zu\n",
                  tuned.achieved_recall, opt->tune, tuned.configs_tried,
                  tuned.reached_target ? "hit" : "best effort",
                  params.num_trees, params.refine_iters);
    }

    if (opt->load.empty()) {
      std::printf("building: k=%zu strategy=%s trees=%zu leaf=%zu refine=%zu"
                  " compression=%s\n",
                  params.k, core::strategy_name(params.strategy),
                  params.num_trees, params.leaf_size, params.refine_iters,
                  core::compression_name(params.compression));
    }

    core::BuildResult result;
    std::optional<shard::ShardBuildResult> sharded;
    if (!opt->load.empty()) {
      result.graph = data::read_knng(opt->load);
      WKNNG_CHECK_MSG(result.graph.num_points() == points.rows(),
                      "loaded graph has " << result.graph.num_points()
                                          << " points, data has "
                                          << points.rows());
      std::printf("loaded graph %s (k=%zu)\n", opt->load.c_str(),
                  result.graph.k());
    } else if (opt->shards > 0) {
      // Sharded mode: the fault-tolerant manager/worker orchestrator builds
      // one job per shard, then merges and stitches; the merged graph flows
      // into every downstream path exactly like a monolithic build.
      shard::ShardBuildParams sp;
      sp.build = params;
      sp.partition.shards = opt->shards;
      sp.partition.partitioner =
          shard::partitioner_from_name(opt->shard_partitioner);
      sp.partition.seed = opt->seed;
      sp.workers = opt->shard_workers;
      sp.max_retries = opt->shard_retries;
      sp.speculate = opt->speculate;
      sp.loss_stall = opt->shard_stall;
      sp.heartbeat_timeout_ms = opt->shard_heartbeat_ms;
      if (!opt->shard_loss.empty()) {
        sp.worker_loss = simt::fault_spec_from_string(opt->shard_loss);
        sp.worker_loss.enabled = true;
      }
      sp.artifact_prefix = !opt->shard_artifacts.empty()
                               ? opt->shard_artifacts
                               : (!opt->out.empty() ? opt->out + ".shards"
                                                    : "wknng_cli.shards");
      sp.resume = opt->shard_resume;
      sharded = shard::build_sharded_knng(pool, points, sp);
      result.graph = std::move(sharded->merged);
      const shard::ShardBuildReport& srep = sharded->report;
      std::printf(
          "sharded build: %zu shards (%s%s), %zu workers, %.1f ms total "
          "(partition %.1f | build %.1f | stitch %.1f)\n",
          srep.shards,
          shard::partitioner_name(sharded->partition.effective),
          srep.partition_fallback ? ", degraded from kmeans" : "",
          srep.workers, srep.total_seconds * 1e3,
          srep.partition_seconds * 1e3, srep.build_seconds * 1e3,
          srep.stitch_seconds * 1e3);
      std::printf(
          "  losses %llu, retries %llu, speculations %llu, watchdog kills "
          "%llu, heartbeats %llu, quarantined %llu\n",
          static_cast<unsigned long long>(srep.losses_total),
          static_cast<unsigned long long>(srep.retries_total),
          static_cast<unsigned long long>(srep.speculations_total),
          static_cast<unsigned long long>(srep.watchdog_kills_total),
          static_cast<unsigned long long>(srep.heartbeats_total),
          static_cast<unsigned long long>(srep.quarantined_shards));
      std::printf("  stitch: %llu boundary points, %llu edges added\n",
                  static_cast<unsigned long long>(srep.boundary_points),
                  static_cast<unsigned long long>(srep.stitched_edges));
      if (srep.degraded) std::printf("health: DEGRADED\n");
      degraded = srep.degraded;
    } else {
      const core::KnngBuilder builder(pool, params);
      if (!opt->resume.empty()) {
        std::printf("resuming from %s\n", opt->resume.c_str());
        result = builder.resume(points, opt->resume);
      } else {
        result = builder.build(points);
      }
      std::printf("built in %.1f ms (forest %.1f | leaf %.1f | refine %.1f | "
                  "extract %.1f), %llu distance evals\n",
                  result.total_seconds * 1e3, result.forest_seconds * 1e3,
                  result.leaf_seconds * 1e3, result.refine_seconds * 1e3,
                  result.extract_seconds * 1e3,
                  static_cast<unsigned long long>(result.stats.distance_evals));
      if (result.sq8 != nullptr) {
        std::printf("sq8: rerank %.1f ms, depth %zu, %llu candidates "
                    "rescored exactly\n",
                    result.rerank_seconds * 1e3, result.rerank_depth_used,
                    static_cast<unsigned long long>(
                        result.candidates_reranked));
      }
      const char* races_env = std::getenv("WKNNG_CHECK_RACES");
      if (params.check_races || (races_env && *races_env && *races_env != '0')) {
        std::printf("race check: %zu conflicts flagged\n",
                    result.races_detected);
      }

      const core::BuildHealth& h = result.health;
      const bool eventful = h.degraded || h.buckets_retried > 0 ||
                            h.launches_retried > 0 || h.faults_injected > 0;
      if (eventful) {
        std::printf("health: %s\n", h.degraded ? "DEGRADED" : "ok");
        if (!h.fallback_reason.empty()) {
          std::printf("  fallback: %s\n", h.fallback_reason.c_str());
        }
        std::printf(
            "  buckets retried %zu / failed %zu / degraded %zu, "
            "launches retried %zu\n",
            h.buckets_retried, h.buckets_failed, h.buckets_degraded,
            h.launches_retried);
        std::printf("  points quarantined %zu, refine points skipped %zu\n",
                    h.points_quarantined, h.refine_points_skipped);
        std::printf("  rounds completed %zu%s, faults injected %llu\n",
                    h.rounds_completed, h.deadline_hit ? " (deadline hit)" : "",
                    static_cast<unsigned long long>(h.faults_injected));
      }
      degraded = h.degraded;
    }

    // The build's own registry series; the serve series join when the engine
    // runs.
    const auto add_series = [&](obs::MetricsRegistry& reg) {
      core::register_build_metrics(reg, result);
      if (sharded) shard::register_shard_metrics(reg, sharded->report);
    };

    // Evaluation.
    if (!opt->truth.empty()) {
      const auto gt = data::read_ivecs(opt->truth);
      WKNNG_CHECK_MSG(gt.rows() == points.rows(),
                      "truth rows != points: " << gt.rows());
      const std::size_t gk = std::min<std::size_t>(gt.cols(), opt->k);
      double hits = 0.0;
      for (std::size_t i = 0; i < gt.rows(); ++i) {
        auto row = result.graph.row(i);
        for (std::size_t s = 0; s < gk; ++s) {
          const auto want = static_cast<std::uint32_t>(gt(i, s));
          for (const Neighbor& nb : row) {
            if (nb.id == want) {
              hits += 1.0;
              break;
            }
          }
        }
      }
      std::printf("recall@%zu vs %s: %.4f\n", gk, opt->truth.c_str(),
                  hits / static_cast<double>(gt.rows() * gk));
    } else if (opt->sample > 0) {
      const auto truth =
          exact::sampled_ground_truth(pool, points, opt->k, opt->sample, 777);
      std::printf("sampled recall@%zu (%zu points): %.4f\n", opt->k,
                  truth.ids.size(), exact::recall(result.graph, truth));
    }

    if (opt->report) {
      const auto comps = core::connected_components(result.graph);
      const auto degs = core::summarize_degrees(core::in_degrees(result.graph));
      std::printf("graph report:\n");
      std::printf("  components: %zu (largest %zu of %zu)\n", comps.count,
                  comps.largest, points.rows());
      std::printf("  in-degree: min %u / mean %.2f / max %u (stddev %.2f)\n",
                  degs.min, degs.mean, degs.max, degs.stddev);
      std::printf("  symmetry rate: %.3f\n",
                  core::symmetry_rate(result.graph));
      std::printf("  mean edge distance: %.6f\n",
                  core::mean_edge_distance(result.graph));
    }

    // The served snapshot. --optimize-serve attaches the layout here, before
    // the engine exists, so --out can carry it as a WKNNGOP1 trailer.
    std::shared_ptr<const serve::GraphSnapshot> snap;
    if (opt->serve) {
      snap = serve::make_snapshot(1, points, result.graph, result.sq8);
      if (opt->optimize_serve) snap = serve::with_serving_layout(pool, snap);
    }
    if (!opt->out.empty()) {
      write_graph(opt->out, result.graph,
                  snap != nullptr ? snap->serving_layout() : nullptr);
    }
    if (opt->serve) {
      run_serve(pool, *opt, points, std::move(snap), add_series);
    } else if (!opt->queries.empty() && sharded) {
      // Sharded index: route each query to its top-p shards by centroid
      // distance and k-way-merge the per-shard answers.
      const FloatMatrix queries = load_queries(*opt, points);
      shard::RouterParams rp;
      rp.top_p = opt->shard_top_p;
      rp.search.k = opt->k;
      rp.search.beam = opt->beam;
      rp.search.seed = opt->seed;
      const shard::ShardRouter router(pool, *sharded, rp);
      shard::RouteStats rstats;
      Timer stimer;
      const KnnGraph found = router.route_batch(queries, &rstats);
      std::printf("routed %zu queries in %.2f ms (%.3f ms/query, "
                  "top-%zu of %zu shards, %llu probes)\n",
                  queries.rows(), stimer.elapsed_ms(),
                  stimer.elapsed_ms() / static_cast<double>(queries.rows()),
                  rp.top_p, router.routable().size(),
                  static_cast<unsigned long long>(rstats.probes));
      if (!opt->out_results.empty()) {
        write_ids(opt->out_results, found, opt->k);
      }
    } else if (!opt->queries.empty()) {
      const FloatMatrix queries = load_queries(*opt, points);
      core::SearchParams sp;
      sp.k = opt->k;
      sp.beam = opt->beam;
      sp.rerank_depth = opt->rerank_depth;
      // One-shot searches reuse the build's compressed tier when it exists.
      std::vector<float> sq8_terms;
      kernels::Sq8View sq8_view;
      if (result.sq8 != nullptr) {
        sq8_terms = kernels::sq8_term_cache(*result.sq8);
        sq8_view = {result.sq8.get(), sq8_terms};
      }
      core::SearchStats sstats;
      Timer stimer;
      const KnnGraph found = core::graph_search(
          pool, points, result.graph, queries, sp, &sstats, nullptr,
          sq8_view.valid() ? &sq8_view : nullptr);
      std::printf("answered %zu queries in %.2f ms (%.3f ms/query, "
                  "visited %.2f%% of base per query)\n",
                  queries.rows(), stimer.elapsed_ms(),
                  stimer.elapsed_ms() / static_cast<double>(queries.rows()),
                  100.0 * static_cast<double>(sstats.points_visited) /
                      static_cast<double>(sstats.queries) /
                      static_cast<double>(points.rows()));
      if (!opt->out_results.empty()) {
        write_ids(opt->out_results, found, opt->k);
      }
    }

    if (!opt->out_ivecs.empty()) write_ids(opt->out_ivecs, result.graph, opt->k);

    if (!opt->serve) export_registry(*opt, add_series, nullptr);
    close_run();
    // A degraded build still produced a usable graph (and any requested
    // outputs above), but scripted callers should know it was not the ideal
    // run — hence the distinct exit code.
    return degraded ? 3 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
