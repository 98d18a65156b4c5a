#pragma once

/// Umbrella header: the complete public API of the w-KNNG library.
///
/// Typical flow:
///   wknng::ThreadPool pool;
///   wknng::FloatMatrix pts = wknng::data::read_fvecs("base.fvecs");
///   wknng::core::BuildParams params;          // k, strategy, trees, ...
///   auto result = wknng::core::build_knng(pool, pts, params);
///   wknng::data::write_knng("base.knng", result.graph);
///
/// Subsystem map (see DESIGN.md):
///   common/     containers, pool, RNG, KnnGraph
///   simt/       the warp-execution substrate the kernels run on
///   data/       synthetic sets, .fvecs/.ivecs and graph I/O, transforms
///   exact/      brute force + recall (ground truth)
///   core/       the w-KNNG builder, strategies, metrics, graph search
///   ivf/        IVF-Flat baseline (FAISS surrogate)
///   nndescent/  NN-Descent baseline
///   obs/        span tracing, metrics registry, Prometheus/JSON exporters
///   opt/        serve-graph optimization: occlusion pruning, cache-blocked
///               CSR relayout, learned per-query visit budgets
///   serve/      batched, deadline-aware query serving over a built graph
///   shard/      fault-tolerant sharded build orchestration + query routing
///   dynamic/    mutable K-NNG: inserts, tombstone deletes, WAL, repair

#include "common/knn_graph.hpp"
#include "common/matrix.hpp"
#include "common/thread_pool.hpp"
#include "common/topk.hpp"
#include "core/builder.hpp"
#include "core/graph_metrics.hpp"
#include "core/graph_search.hpp"
#include "core/params.hpp"
#include "core/warp_brute_force.hpp"
#include "data/graph_io.hpp"
#include "data/io.hpp"
#include "data/synthetic.hpp"
#include "data/transforms.hpp"
#include "data/wal.hpp"
#include "dynamic/dynamic_knng.hpp"
#include "dynamic/metrics.hpp"
#include "exact/brute_force.hpp"
#include "exact/recall.hpp"
#include "ivf/ivf_flat.hpp"
#include "ivf/ivf_sq8.hpp"
#include "nndescent/nn_descent.hpp"
#include "obs/audit.hpp"
#include "obs/build_info.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/params.hpp"
#include "obs/registry.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "opt/budget.hpp"
#include "opt/metrics.hpp"
#include "opt/optimize.hpp"
#include "opt/serving_graph.hpp"
#include "serve/engine.hpp"
#include "serve/loadgen.hpp"
#include "serve/metrics.hpp"
#include "serve/snapshot.hpp"
#include "shard/manager.hpp"
#include "shard/partition.hpp"
#include "shard/report.hpp"
#include "shard/router.hpp"
#include "shard/stitch.hpp"
#include "shard/worker_loss.hpp"
#include "tuner/tuner.hpp"
