// End-to-end benchmark driver: runs one workload in this process and prints
// its metrics, correctness gates and operation counts as one JSON object on
// the last line of stdout. bench/e2e/run.py builds and runs it.
//
//   e2e_bench --workload NAME --seed N --seconds S
//             [--trace-out FILE] [--workdir DIR] [--scale D]
//
// Every workload goes through the lifecycle a user of the library does:
//  1. set-up, repeated kSetups times, the last one kept: build the graph
//     (core::build_knng, or the dynamic::DynamicKnng constructor), attach the
//     serving layout where the workload uses one, start a serve::ServeEngine;
//  2. a short untimed warm-up, then `seconds` of reads: half a closed loop,
//     half an open loop (load.hpp). The churn workload adds a paced writer of
//     single-row inserts and deletes for the whole window;
//  3. correctness gates against exact brute force and a replay.
// Inputs (points, queries, arrival schedule, write sequence) come from the
// seed; the program configuration is fixed here. With --trace-out the run
// also records bench-side layer spans and times each layer's public entry
// points directly (kernels, search, layout, build phases).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/builder.hpp"
#include "core/graph_search.hpp"
#include "data/synthetic.hpp"
#include "dynamic/dynamic_knng.hpp"
#include "exact/brute_force.hpp"
#include "exact/recall.hpp"
#include "harness.hpp"
#include "kernels/kernels.hpp"
#include "kernels/sq8.hpp"
#include "load.hpp"
#include "opt/optimize.hpp"
#include "serve/engine.hpp"
#include "serve/snapshot.hpp"

namespace wknng::e2e {
namespace {

// Fixed program configuration (the seed only changes the inputs).
constexpr std::size_t kGraphK = 16;
constexpr std::size_t kTrees = 8;
constexpr std::size_t kRefineRounds = 2;
constexpr std::size_t kSearchK = 10;
constexpr std::size_t kBeam = 96;
constexpr std::size_t kEntrySample = 256;
constexpr std::size_t kMinDegree = 12;  // layout keep-floor (fig14's choice)
constexpr std::size_t kPoolThreads = 4;
constexpr std::size_t kClients = 4;      // closed-loop clients (churn: 3 + writer)
constexpr std::size_t kQueries = 1000;   // distinct query rows
constexpr std::size_t kSetups = 4;       // set-ups per run; medians reported
constexpr std::size_t kGraphSample = 1000;  // points in the graph-recall sample
constexpr std::size_t kReplayTags = 512;    // tags re-served by the replay gate
constexpr double kWarmupShare = 0.05;  // untimed warm-up, share of --seconds
constexpr double kWindowSeconds = 0.5;  // read metrics: median over windows
constexpr double kGoodLatencyUs = 5000.0;  // open-loop "answered in time"
constexpr double kWriteRate = 20.0;        // churn writer ops per second
constexpr double kInsertShare = 0.8;       // of churn writes; the rest delete

constexpr std::uint64_t kWarmupTagBase = std::uint64_t{1} << 40;
constexpr std::uint64_t kOpenTagBase = std::uint64_t{1} << 32;
constexpr std::uint64_t kFinalTagBase = std::uint64_t{1} << 36;

/// One benchmark workload. The recall floors of the correctness gates are
/// the lowest value measured over 20-30 seeds, minus 0.02.
struct Workload {
  const char* name;
  std::size_t n;
  std::size_t dim;
  std::size_t clusters;
  core::Compression compression;
  bool layout;  ///< serve through the opt:: layout attached at set-up
  bool churn;   ///< dynamic index with a paced writer
  double open_qps;
  double graph_recall_floor;
  double recall_floor;
};

constexpr Workload kWorkloads[] = {
    // Low dimension: the atomic strategy; k-NN-set maintenance and the
    // forest weigh most, distance math least. Raw-graph serving.
    {"d16-atomic", 65536, 16, 64, core::Compression::kNone, false, false,
     3000.0, 0.965, 0.947},
    // High dimension: the tiled strategy; the l2_tile kernel dominates the
    // leaf and refine phases. Raw-graph serving.
    {"d128-tiled", 32768, 128, 64, core::Compression::kNone, false, false,
     2000.0, 0.933, 0.924},
    // Read-only serving through the pruned, BFS-relaid opt:: layout.
    {"d64-layout", 65536, 64, 64, core::Compression::kNone, true, false,
     3000.0, 0.906, 0.899},
    // The same data with the SQ8 tier: compressed scoring plus exact rerank.
    // The layout is attached but the engine bypasses it for SQ8 snapshots.
    {"d64-sq8", 65536, 64, 64, core::Compression::kSq8, true, false, 3000.0,
     0.965, 0.920},
    // Writes beside reads: a dynamic index publishing a snapshot per write.
    {"d32-churn", 65536, 32, 64, core::Compression::kNone, false, true,
     2000.0, 0.940, 0.922},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 4242;
  double seconds = 6.0;
  std::string trace_out;
  std::string workdir = ".";
  std::size_t scale = 1;
};

core::BuildParams build_params(const Workload& w) {
  core::BuildParams p;
  p.k = kGraphK;
  p.strategy = core::recommended_strategy(w.dim);
  p.num_trees = kTrees;
  p.refine_iters = kRefineRounds;
  p.compression = w.compression;
  return p;
}

opt::OptimizeOptions optimize_options() {
  opt::OptimizeOptions o;
  o.min_degree = kMinDegree;
  return o;
}

serve::ServeOptions serve_options() {
  serve::ServeOptions so;
  so.search.k = kSearchK;
  so.search.beam = kBeam;
  so.search.entry_sample = kEntrySample;
  return so;
}

FloatMatrix make_points(const Workload& w, std::size_t n, std::uint64_t seed) {
  data::DatasetSpec spec;
  spec.kind = data::DatasetKind::kClusters;
  spec.n = n;
  spec.dim = w.dim;
  spec.clusters = w.clusters;
  spec.cluster_spread = 0.08f;
  spec.seed = seed;
  return data::generate(spec);
}

/// Queries near random base points: the regime a similarity search serves.
FloatMatrix make_queries(const FloatMatrix& base, std::uint64_t seed) {
  FloatMatrix q(kQueries, base.cols());
  Rng rng(seed, /*stream=*/1);
  for (std::size_t i = 0; i < kQueries; ++i) {
    const auto src = base.row(rng.next_below(base.rows()));
    auto dst = q.row(i);
    for (std::size_t d = 0; d < base.cols(); ++d) {
      dst[d] = src[d] + 0.02f * rng.next_gaussian();
    }
  }
  return q;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

template <typename Fn>
double best_of(int reps, const Fn& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    const double s = seconds_since(t0);
    if (r == 0 || s < best) best = s;
  }
  return best;
}

// --- Set-up ----------------------------------------------------------------

/// One set-up of the system under test. The engine is declared last so it
/// stops before the snapshot or dynamic index it serves is destroyed.
struct Index {
  std::unique_ptr<dynamic::DynamicKnng> dyn;
  std::shared_ptr<const serve::GraphSnapshot> snap;  ///< as first served
  std::atomic<serve::ServeEngine*> live{nullptr};    ///< on_publish target
  core::BuildResult build;  ///< phases and counters (static workloads)
  simt::Stats stats;
  double setup_s = 0.0;
  double build_s = 0.0;
  double optimize_s = 0.0;
  std::unique_ptr<serve::ServeEngine> engine;
};

std::unique_ptr<Index> set_up(ThreadPool& pool, const Workload& w,
                              const FloatMatrix& base, const std::string& dir,
                              LayerTrace* trace, std::uint64_t parent) {
  auto ix = std::make_unique<Index>();
  LayerSpan span(trace, "bench", "setup", parent);
  const auto t0 = Clock::now();
  if (w.churn) {
    dynamic::DynamicParams dp;
    dp.on_publish = [live = &ix->live](auto snap) {
      if (serve::ServeEngine* e = live->load()) e->publish(std::move(snap));
    };
    {
      LayerSpan s(trace, "dynamic", "DynamicKnng", span.id());
      ix->dyn = std::make_unique<dynamic::DynamicKnng>(pool, build_params(w),
                                                       base, dir, dp);
    }
    ix->build_s = seconds_since(t0);
    ix->stats = ix->dyn->stats();
    ix->snap = ix->dyn->snapshot();
  } else {
    {
      LayerSpan s(trace, "core", "build_knng", span.id());
      ix->build = core::build_knng(pool, base, build_params(w));
    }
    ix->build_s = seconds_since(t0);
    ix->stats = ix->build.stats;
    std::shared_ptr<const serve::GraphSnapshot> snap =
        std::make_shared<const serve::GraphSnapshot>(
            1, base, std::move(ix->build.graph), ix->build.sq8);
    if (w.layout) {
      const auto t1 = Clock::now();
      LayerSpan s(trace, "opt", "with_serving_layout", span.id());
      snap = serve::with_serving_layout(pool, snap, optimize_options());
      ix->optimize_s = seconds_since(t1);
    }
    ix->snap = std::move(snap);
  }
  {
    LayerSpan s(trace, "serve", "ServeEngine", span.id());
    ix->engine =
        std::make_unique<serve::ServeEngine>(pool, serve_options(), ix->snap);
  }
  ix->live.store(ix->engine.get());
  ix->setup_s = seconds_since(t0);
  return ix;
}

/// Graph rows sorted, duplicate- and self-loop-free, ids in range.
bool graph_valid(const KnnGraph& g) {
  if (!g.check_invariants()) return false;
  for (std::size_t i = 0; i < g.num_points(); ++i) {
    for (const Neighbor& nb : g.row(i)) {
      if (nb.id != KnnGraph::kInvalid && nb.id >= g.num_points()) return false;
    }
  }
  return true;
}

// --- Churn writer ----------------------------------------------------------

/// The churn workload's writer and its reference model: the set of live
/// external ids, and for every id the first version that shows it and the
/// first version that no longer does.
struct ChurnLog {
  std::vector<std::uint32_t> live;
  std::vector<std::uint64_t> born;
  std::vector<std::uint64_t> died;
  std::vector<double> insert_us;
  std::vector<double> erase_us;
  std::vector<double> late_us;
  std::uint64_t failures = 0;
  std::string first_error;

  bool visible(std::uint32_t id, std::uint64_t version) const {
    return id < born.size() && born[id] <= version && version < died[id];
  }
};

/// Sends a seeded sequence of single-row inserts (a jittered base row) and
/// deletes (a random live id) at kWriteRate, back to back when behind,
/// until `end`.
void run_writer(dynamic::DynamicKnng& dyn, const FloatMatrix& base,
                std::uint64_t seed, Clock::time_point end, ChurnLog& log,
                LayerTrace* trace, std::uint64_t parent) {
  Rng rng(seed, /*stream=*/3);
  const auto start = Clock::now();
  FloatMatrix row(1, base.cols());
  for (std::size_t i = 0;; ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     static_cast<double>(i) / kWriteRate));
    if (due >= end) break;
    std::this_thread::sleep_until(due);
    log.late_us.push_back(us_between(due, Clock::now()));
    const bool insert = rng.next_double() < kInsertShare || log.live.empty();
    const std::uint64_t before = dyn.version();
    const auto t0 = Clock::now();
    try {
      if (insert) {
        const auto src = base.row(rng.next_below(base.rows()));
        for (std::size_t d = 0; d < base.cols(); ++d) {
          row(0, d) = src[d] + 0.02f * rng.next_gaussian();
        }
        LayerSpan s(trace, "dynamic", "insert", parent);
        const std::uint32_t id = dyn.insert(row).at(0);
        if (id >= log.born.size()) {
          log.born.resize(id + 1, ~std::uint64_t{0});
          log.died.resize(id + 1, ~std::uint64_t{0});
        }
        log.born[id] = before + 1;
        log.live.push_back(id);
        log.insert_us.push_back(us_between(t0, Clock::now()));
      } else {
        const std::size_t at = rng.next_below(log.live.size());
        const std::uint32_t id = log.live[at];
        LayerSpan s(trace, "dynamic", "erase", parent);
        if (dyn.erase(std::span<const std::uint32_t>(&id, 1)) != 1) {
          throw std::runtime_error("erase of live id " + std::to_string(id) +
                                   " deleted nothing");
        }
        log.died[id] = before + 1;
        log.live[at] = log.live.back();
        log.live.pop_back();
        log.erase_us.push_back(us_between(t0, Clock::now()));
      }
    } catch (const std::exception& e) {
      if (log.failures++ == 0) log.first_error = e.what();
    }
  }
}

// --- Per-layer probes (trace runs only) --------------------------------------

/// Single-threaded kernel costs on the workload's own rows, best of 5:
/// leaf-shaped 32x64 tiles, and search-shaped 1x64 batches over random rows.
void probe_kernels(const FloatMatrix& base, const FloatMatrix& queries,
                   const kernels::Sq8Matrix& codes, std::uint64_t seed,
                   Report& rep, LayerTrace* trace, std::uint64_t parent) {
  const kernels::KernelOps& ops = kernels::ops();
  const std::size_t dim = base.cols();
  const bool strict = kernels::strict_mode();
  const std::vector<float> norms =
      strict ? std::vector<float>{} : kernels::row_norms(base);
  const std::vector<float> terms =
      strict ? std::vector<float>{} : kernels::sq8_code_terms(codes);
  Rng rng(seed, /*stream=*/4);

  constexpr std::size_t kTiles = 64, kA = 32, kB = 64, kBatches = 256;
  std::vector<std::uint32_t> ids((kTiles + kBatches) * (kA + kB));
  for (std::uint32_t& id : ids) {
    id = static_cast<std::uint32_t>(rng.next_below(base.rows()));
  }
  std::vector<const float*> rows(ids.size());
  std::vector<const std::uint8_t*> code_rows(ids.size());
  std::vector<float> row_norm(ids.size(), 0.0f), row_term(ids.size(), 0.0f);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    rows[i] = base.row(ids[i]).data();
    code_rows[i] = codes.row(ids[i]).data();
    if (!strict) {
      row_norm[i] = norms[ids[i]];
      row_term[i] = terms[ids[i]];
    }
  }
  const float* nrm = strict ? nullptr : row_norm.data();
  const float* trm = strict ? nullptr : row_term.data();
  std::vector<float> out(kA * kB);

  LayerSpan span(trace, "kernels", "probe", parent);
  const double tile_s = best_of(5, [&] {
    for (std::size_t t = 0; t < kTiles; ++t) {
      const std::size_t a = t * (kA + kB), b = a + kA;
      ops.l2_tile(&rows[a], nrm ? nrm + a : nullptr, kA, &rows[b],
                  nrm ? nrm + b : nullptr, kB, dim, out.data(), kB);
    }
  });
  const double batch_s = best_of(5, [&] {
    for (std::size_t q = 0; q < kBatches; ++q) {
      const std::size_t b = (kTiles + q) * (kA + kB);
      ops.l2_batch(queries.row(q % queries.rows()).data(), &rows[b],
                   nrm ? nrm + b : nullptr, kB, dim, out.data());
    }
  });
  std::vector<kernels::Sq8Query> prepared(kBatches);
  std::vector<std::vector<float>> wbuf(kBatches);
  for (std::size_t q = 0; q < kBatches; ++q) {
    prepared[q] = kernels::sq8_prepare(queries.row(q % queries.rows()),
                                       codes.codebook, wbuf[q]);
  }
  const double sq8_s = best_of(5, [&] {
    for (std::size_t q = 0; q < kBatches; ++q) {
      const std::size_t b = (kTiles + q) * (kA + kB);
      ops.sq8_l2_batch(prepared[q], &code_rows[b], trm ? trm + b : nullptr,
                       kB, out.data());
    }
  });
  const double tile_evals = static_cast<double>(kTiles * kA * kB);
  const double batch_evals = static_cast<double>(kBatches * kB);
  const double tile_bytes =
      static_cast<double>(kTiles * (kA + kB) * dim * sizeof(float));
  rep.metric("kernels.l2_tile_ns", tile_s * 1e9 / tile_evals, "ns");
  rep.metric("kernels.l2_tile_gbs", tile_bytes / tile_s / 1e9, "GB/s");
  rep.metric("kernels.l2_batch_ns", batch_s * 1e9 / batch_evals, "ns");
  rep.metric("kernels.sq8_l2_batch_ns", sq8_s * 1e9 / batch_evals, "ns");
}

/// One direct call of the read path the engine uses for `snap`, over the
/// whole query set, best of 5.
void probe_search(ThreadPool& pool, const serve::GraphSnapshot& snap,
                  const FloatMatrix& queries, Report& rep, LayerTrace* trace,
                  std::uint64_t parent) {
  const core::SearchParams sp = serve_options().search;
  const kernels::Sq8View sq8 = snap.sq8_view();
  const opt::ServingGraph* layout = sq8.valid() ? nullptr : snap.serving_layout();
  std::uint64_t visits = 0;
  LayerSpan span(trace, "core", "search_probe", parent);
  const double s = best_of(5, [&] {
    if (layout != nullptr) {
      const core::BatchSearchResult r =
          core::serving_search_batch(pool, *layout, queries, {}, sp);
      visits = std::accumulate(r.visits.begin(), r.visits.end(),
                               std::uint64_t{0});
    } else {
      core::SearchStats stats;
      core::graph_search(pool, snap.base, snap.graph, queries, sp, &stats,
                         nullptr, sq8.valid() ? &sq8 : nullptr);
      visits = stats.points_visited;
    }
  });
  const double q = static_cast<double>(queries.rows());
  rep.metric("core.search_us_per_query", s * 1e6 / q, "us");
  rep.metric("core.search_visits_per_query", static_cast<double>(visits) / q,
             "count");
}

void report_build_phases(const std::vector<core::BuildResult>& builds,
                         Report& rep) {
  const auto med = [&](double core::BuildResult::*field) {
    std::vector<double> v;
    for (const core::BuildResult& b : builds) v.push_back(b.*field);
    return median(v);
  };
  const double leaf = med(&core::BuildResult::leaf_seconds);
  const double refine = med(&core::BuildResult::refine_seconds);
  rep.metric("core.forest_s", med(&core::BuildResult::forest_seconds), "s");
  rep.metric("core.leaf_s", leaf, "s");
  rep.metric("core.refine_s", refine, "s");
  rep.metric("core.extract_s", med(&core::BuildResult::extract_seconds), "s");
  const double evals =
      static_cast<double>(builds.front().stats.distance_evals);
  rep.metric("core.ns_per_eval", (leaf + refine) * 1e9 / evals, "ns");
}

void report_layout(const opt::ServingGraph& sg, double optimize_s,
                   Report& rep) {
  rep.metric("opt.optimize_s", optimize_s, "s");
  rep.metric("opt.edges_kept_ratio",
             static_cast<double>(sg.edges_after) /
                 static_cast<double>(sg.edges_before),
             "ratio");
}

// --- The run ---------------------------------------------------------------

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  std::string names;
  for (const Workload& w : kWorkloads) names += std::string(" ") + w.name;
  throw std::invalid_argument("unknown workload '" + name + "'; one of:" +
                              names);
}

double mean_recall(const std::vector<ReadSample>& reads, const KnnGraph& truth,
                   std::size_t queries) {
  double acc = 0.0;
  std::size_t count = 0;
  for (const ReadSample& r : reads) {
    if (r.status != serve::QueryStatus::kOk) continue;
    acc += exact::row_recall(r.neighbors, truth.row(r.tag % queries));
    ++count;
  }
  return count == 0 ? 0.0 : acc / static_cast<double>(count);
}

std::size_t count_failed(const std::vector<ReadSample>& reads) {
  return static_cast<std::size_t>(std::count_if(
      reads.begin(), reads.end(), [](const ReadSample& r) {
        return r.status != serve::QueryStatus::kOk;
      }));
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

int run(const Args& args) {
  const Workload& w = find_workload(args.workload);
  const std::size_t n = w.n / args.scale;
  ThreadPool pool(kPoolThreads);
  std::optional<LayerTrace> trace_store;
  if (!args.trace_out.empty()) trace_store.emplace();
  LayerTrace* trace = trace_store ? &*trace_store : nullptr;
  Report rep;

  // Inputs and ground truth (not part of any timed quantity).
  const FloatMatrix base = make_points(w, n, args.seed);
  const FloatMatrix queries = make_queries(base, args.seed);
  const exact::SampledTruth graph_truth = exact::sampled_ground_truth(
      pool, base, kGraphK, std::min(kGraphSample, n), args.seed);
  const KnnGraph truth =
      w.churn ? KnnGraph{} : exact::brute_force_knn(pool, base, queries, kSearchK);

  const std::filesystem::path workdir =
      std::filesystem::path(args.workdir) /
      ("e2e-" + std::string(w.name) + "-" + std::to_string(::getpid()));
  const std::uint64_t root = trace ? trace->root() : 0;

  // 1. Set-up, kSetups times; the last index is kept.
  std::unique_ptr<Index> ix;
  std::vector<double> setup_s, build_s, optimize_s;
  std::vector<core::BuildResult> builds;
  std::vector<std::uint64_t> evals;
  for (std::size_t r = 0; r < kSetups; ++r) {
    ix.reset();
    std::filesystem::remove_all(workdir);
    ix = set_up(pool, w, base, (workdir / "wal").string(), trace, root);
    setup_s.push_back(ix->setup_s);
    build_s.push_back(ix->build_s);
    optimize_s.push_back(ix->optimize_s);
    evals.push_back(ix->stats.distance_evals);
    if (!w.churn) builds.push_back(std::move(ix->build));
  }
  // Memory of inputs, ground truth and the index, before the read phase adds
  // the driver's own per-read bookkeeping (which grows with qps).
  const double setup_rss_mb = peak_rss_mb();
  const KnnGraph& graph = ix->snap->graph;
  const double graph_recall = exact::recall(graph, graph_truth);
  rep.gate("graph_valid", graph_valid(graph),
           std::to_string(graph.num_points()) + " rows");
  rep.gate("graph_recall", graph_recall >= w.graph_recall_floor,
           fmt(graph_recall) + " >= " + fmt(w.graph_recall_floor));
  rep.gate("evals_repeat",
           std::all_of(evals.begin(), evals.end(),
                       [&](std::uint64_t e) { return e == evals.front(); }),
           std::to_string(evals.front()) + " distance evals per build");

  // 2. Warm-up, then the measured window.
  serve::ServeEngine& engine = *ix->engine;
  run_closed_loop(engine, queries, kClients, kWarmupShare * args.seconds,
                  kWarmupTagBase, nullptr, 0);
  const double half = args.seconds / 2.0;
  ChurnLog churn;
  std::jthread writer;  // declared after what it uses: joins first
  if (w.churn) {
    churn.born.assign(n, 1);
    churn.died.assign(n, ~std::uint64_t{0});
    churn.live.resize(n);
    std::iota(churn.live.begin(), churn.live.end(), 0u);
    const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(
                                            args.seconds));
    writer = std::jthread([&, end] {
      try {
        LayerSpan s(trace, "bench", "writer", root, kClients + 1);
        run_writer(*ix->dyn, base, args.seed, end, churn, trace, s.id());
      } catch (const std::exception& e) {
        ++churn.failures;
        churn.first_error = e.what();
      }
    });
  }
  const std::size_t clients = w.churn ? kClients - 1 : kClients;
  std::vector<ReadSample> closed, open;
  {
    LayerSpan s(trace, "bench", "closed_loop", root);
    closed = run_closed_loop(engine, queries, clients, half, 0, trace, s.id());
  }
  {
    LayerSpan s(trace, "bench", "open_loop", root);
    open = run_open_loop(engine, queries, w.open_qps, half, args.seed,
                         kOpenTagBase, trace, s.id());
  }
  if (writer.joinable()) writer.join();
  engine.drain();
  const std::size_t spans_measured = trace ? trace->span_count() : 0;

  // 3. Gates and metrics.
  const std::size_t failed_reads = count_failed(closed) + count_failed(open);
  rep.gate("reads_ok", failed_reads == 0,
           std::to_string(failed_reads) + " of " +
               std::to_string(closed.size() + open.size()) +
               " reads not ok");
  rep.count(closed.size() + open.size(), failed_reads);

  double recall = 0.0;
  if (w.churn) {
    // Every answer shows only ids live at the version that answered it.
    std::size_t stale = 0;
    for (const auto* reads : {&closed, &open}) {
      for (const ReadSample& r : *reads) {
        for (const Neighbor& nb : r.neighbors) {
          if (!churn.visible(nb.id, r.version)) ++stale;
        }
      }
    }
    rep.gate("answers_live", stale == 0,
             std::to_string(stale) + " answered ids not live at their version");
    const std::size_t writes = churn.insert_us.size() + churn.erase_us.size();
    rep.gate("writes_ok", churn.failures == 0 && writes > 0,
             std::to_string(writes) + " writes, " +
                 std::to_string(churn.failures) + " failed " +
                 churn.first_error);
    rep.count(writes + churn.failures, churn.failures);

    // The final live set equals the model; recall on it against brute force.
    const auto snap = ix->dyn->snapshot();
    const auto mask = snap->exclusion_mask();
    std::vector<std::uint32_t> live_rows, live_ext;
    for (std::uint32_t p = 0; p < snap->base.rows(); ++p) {
      if (mask.empty() || mask[p] == 0) {
        live_rows.push_back(p);
        live_ext.push_back(snap->external_id(p));
      }
    }
    std::vector<std::uint32_t> model = churn.live;
    std::sort(model.begin(), model.end());
    std::vector<std::uint32_t> have = live_ext;
    std::sort(have.begin(), have.end());
    rep.gate("live_set_matches_model", have == model,
             std::to_string(have.size()) + " live rows, model has " +
                 std::to_string(model.size()));
    FloatMatrix live_pts(live_rows.size(), snap->base.cols());
    for (std::size_t i = 0; i < live_rows.size(); ++i) {
      const auto src = snap->base.row(live_rows[i]);
      std::copy(src.begin(), src.end(), live_pts.row(i).begin());
    }
    KnnGraph live_truth =
        exact::brute_force_knn(pool, live_pts, queries, kSearchK);
    for (std::size_t q = 0; q < live_truth.num_points(); ++q) {
      for (Neighbor& nb : live_truth.row(q)) {
        if (nb.id != KnnGraph::kInvalid) nb.id = live_ext[nb.id];
      }
    }
    std::vector<std::future<serve::QueryResult>> futures;
    for (std::size_t q = 0; q < kQueries; ++q) {
      futures.push_back(engine.submit(query_for(queries, kFinalTagBase + q), 0,
                                      kFinalTagBase + q));
    }
    std::vector<ReadSample> final_reads;
    for (auto& f : futures) {
      serve::QueryResult qr = f.get();
      ReadSample r;
      r.tag = qr.tag;
      r.status = qr.status;
      r.neighbors = std::move(qr.neighbors);
      final_reads.push_back(std::move(r));
    }
    rep.count(final_reads.size(), count_failed(final_reads));
    recall = mean_recall(final_reads, live_truth, kQueries);
  } else {
    recall = mean_recall(closed, truth, kQueries) * static_cast<double>(closed.size());
    recall += mean_recall(open, truth, kQueries) * static_cast<double>(open.size());
    recall /= static_cast<double>(closed.size() + open.size());

    // Replay: the first tags re-served one at a time by a fresh engine over
    // the same snapshot give bit-identical neighbors.
    serve::ServeEngine fresh(pool, serve_options(), engine.snapshot());
    std::size_t compared = 0, differing = 0;
    for (const ReadSample& r : closed) {
      if (r.tag >= kReplayTags) continue;
      const serve::QueryResult qr =
          fresh.submit(query_for(queries, r.tag), 0, r.tag).get();
      ++compared;
      if (qr.neighbors != r.neighbors) ++differing;
    }
    rep.count(compared, 0);
    rep.gate("replay_identical", differing == 0 && compared > 0,
             std::to_string(differing) + " of " + std::to_string(compared) +
                 " re-served tags differ");
  }
  rep.gate("recall_at_10", recall >= w.recall_floor,
           fmt(recall) + " >= " + fmt(w.recall_floor));

  std::vector<double> queue, service, open_lat, late;
  std::set<std::uint64_t> versions;
  for (const ReadSample& r : closed) {
    queue.push_back(r.queue_us);
    service.push_back(r.service_us);
    versions.insert(r.version);
  }
  for (const ReadSample& r : open) {
    open_lat.push_back(r.latency_us);
    late.push_back(r.late_us);
    versions.insert(r.version);
  }
  using Window = std::vector<const ReadSample*>;
  const auto latency_quantile = [](double p) {
    return [p](const Window& win, double) {
      std::vector<double> v;
      for (const ReadSample* r : win) v.push_back(r->latency_us);
      return quantile(std::move(v), p);
    };
  };
  const auto closed_stat = [&](const auto& stat) {
    return window_median(closed, half, kWindowSeconds, stat);
  };
  const auto open_stat = [&](const auto& stat) {
    return window_median(open, half, kWindowSeconds, stat);
  };

  rep.metric("setup_s", median(setup_s), "s");
  rep.metric("setup_rss_mb", setup_rss_mb, "MB");
  rep.metric("core.build_s", median(build_s), "s");
  rep.metric("graph_recall", graph_recall, "ratio");
  rep.metric("qps", closed_stat([](const Window& win, double window_s) {
               return static_cast<double>(win.size()) / window_s;
             }), "1/s");
  rep.metric("p50_us", closed_stat(latency_quantile(0.50)), "us");
  rep.metric("p95_us", closed_stat(latency_quantile(0.95)), "us");
  rep.metric("serve.p99_us", closed_stat(latency_quantile(0.99)), "us");
  rep.metric("open_p50_us", open_stat(latency_quantile(0.50)), "us");
  const auto good = std::count_if(open.begin(), open.end(), [](const auto& r) {
    return r.status == serve::QueryStatus::kOk && r.latency_us <= kGoodLatencyUs;
  });
  rep.metric("open_good_ratio",
             open.empty() ? 0.0
                          : static_cast<double>(good) /
                                static_cast<double>(open.size()),
             "ratio");
  rep.metric("recall_at_10", recall, "ratio");

  rep.metric("serve.reads_closed", static_cast<double>(closed.size()), "count");
  rep.metric("serve.reads_open", static_cast<double>(open.size()), "count");
  rep.metric("serve.queue_us_p50", quantile(queue, 0.50), "us");
  rep.metric("serve.queue_us_p99", quantile(queue, 0.99), "us");
  rep.metric("serve.service_us_p50", quantile(service, 0.50), "us");
  rep.metric("serve.batch_mean", engine.metrics().batch_size.mean(), "count");
  rep.metric("serve.open_late_us_p99", quantile(late, 0.99), "us");
  rep.metric("serve.open_p99_us", quantile(open_lat, 0.99), "us");
  rep.metric("serve.versions_seen", static_cast<double>(versions.size()),
             "count");
  const simt::Stats& st = ix->stats;
  rep.metric("simt.distance_evals", static_cast<double>(st.distance_evals),
             "count");
  rep.metric("simt.gmem_bytes",
             static_cast<double>(st.global_reads + st.global_writes), "bytes");
  // k-NN-set maintenance: CAS updates (atomic) or lock-held merges (tiled),
  // and the failed attempts that contention cost.
  rep.metric("simt.set_updates",
             static_cast<double>(st.atomic_ops + st.lock_acquires), "count");
  rep.metric("simt.set_retries",
             static_cast<double>(st.cas_retries + st.lock_spins), "count");

  if (w.churn) {
    std::vector<double> writes = churn.insert_us;
    writes.insert(writes.end(), churn.erase_us.begin(), churn.erase_us.end());
    const dynamic::DynamicMetrics& dm = ix->dyn->metrics();
    const auto snap = ix->dyn->snapshot();
    const double copy_bytes =
        static_cast<double>(snap->base.size() * sizeof(float) +
                            snap->graph.num_points() * snap->graph.k() *
                                sizeof(Neighbor) +
                            snap->base.rows() * (1 + sizeof(std::uint32_t)));
    rep.metric("write_ops_s", static_cast<double>(writes.size()) / args.seconds,
               "1/s");
    rep.metric("write_p50_us", quantile(writes, 0.50), "us");
    rep.metric("dynamic.insert_us_p50", quantile(churn.insert_us, 0.50), "us");
    rep.metric("dynamic.insert_us_p95", quantile(churn.insert_us, 0.95), "us");
    rep.metric("dynamic.erase_us_p50", quantile(churn.erase_us, 0.50), "us");
    rep.metric("dynamic.writer_late_us_p50", quantile(churn.late_us, 0.50),
               "us");
    rep.metric("dynamic.repairs", static_cast<double>(dm.repairs.value()),
               "count");
    rep.metric("dynamic.repaired_rows",
               static_cast<double>(dm.repaired_rows.value()), "count");
    rep.metric("dynamic.copy_bytes_per_version", copy_bytes, "bytes");
    rep.metric("data.wal_bytes_per_write",
               writes.empty() ? 0.0
                              : static_cast<double>(dm.wal_bytes.value()) /
                                    static_cast<double>(writes.size()),
               "bytes");
  }

  // Per-layer probes: direct calls into each layer, after the measured window.
  if (trace != nullptr) {
    LayerSpan s(trace, "bench", "probes", root);
    const auto snap = w.churn ? ix->dyn->snapshot() : engine.snapshot();
    const kernels::Sq8Matrix codes =
        snap->sq8 != nullptr ? *snap->sq8 : kernels::sq8_encode(base);
    probe_kernels(base, queries, codes, args.seed, rep, trace, s.id());
    probe_search(pool, *snap, queries, rep, trace, s.id());
    if (w.churn) {
      // The dynamic index builds through its own pipeline and reports no
      // phases; time the core builder on the same rows and parameters.
      LayerSpan b(trace, "core", "build_knng", s.id());
      builds.push_back(core::build_knng(pool, base, build_params(w)));
    }
    report_build_phases(builds, rep);
    if (w.layout) {
      report_layout(*snap->serving, median(optimize_s), rep);
    } else {
      const auto t0 = Clock::now();
      LayerSpan o(trace, "opt", "optimize_serving", s.id());
      const opt::ServingGraph sg =
          opt::optimize_serving(pool, snap->base, snap->graph,
                                optimize_options(), snap->exclusion_mask());
      report_layout(sg, seconds_since(t0), rep);
    }

    // Recording cost of the spans taken during the measured window, as a
    // share of the window: per-span cost measured on a scratch tracer.
    LayerTrace scratch;
    constexpr int kSpans = 20000;
    const auto t0 = Clock::now();
    for (int i = 0; i < kSpans; ++i) {
      scratch.record("serve", "query", scratch.next_id(), 0, 0.0, 1.0, 0);
    }
    const double per_span_s = seconds_since(t0) / kSpans;
    rep.metric("trace.overhead_ratio",
               static_cast<double>(spans_measured) * per_span_s / args.seconds,
               "ratio");
  }
  rep.metric("run_peak_rss_mb", peak_rss_mb(), "MB");

  ix.reset();
  std::filesystem::remove_all(workdir);
  if (trace != nullptr) {
    for (const auto& [layer, s] : trace->self_seconds()) {
      rep.metric("self_s." + layer, s, "s");
    }
    trace->tracer().write_chrome_json(args.trace_out);
  }
  std::cout << rep.to_json(w.name, args.seed) << std::endl;
  return rep.correct() ? 0 : 1;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else if (key == "--workdir") {
      a.workdir = value;
    } else if (key == "--scale") {
      a.scale = std::stoul(value);
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  if (a.scale == 0) throw std::invalid_argument("--scale must be >= 1");
  return a;
}

}  // namespace
}  // namespace wknng::e2e

int main(int argc, char** argv) {
  try {
    return wknng::e2e::run(wknng::e2e::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << "\n";
    return 2;
  }
}
