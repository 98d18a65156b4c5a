#pragma once

// Shared support for the figure/table benchmark binaries: a process-wide
// thread pool, cached datasets and sampled ground truths (so sweeps do not
// pay O(n^2 d) per benchmark registration), and the sampled recall of the
// paper's "equivalent accuracy" comparison protocol. Benches that tune
// w-KNNG to a recall target call tuner::tune_wknng with kTruthSeed, so the
// tuner scores against the same sample sampled_recall reports.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/matrix.hpp"
#include "common/thread_pool.hpp"
#include "core/builder.hpp"
#include "data/synthetic.hpp"
#include "exact/brute_force.hpp"
#include "exact/recall.hpp"

namespace wknng::bench {

/// One pool for the whole binary (workers = hardware concurrency).
inline ThreadPool& pool() {
  static ThreadPool instance;
  return instance;
}

/// Cached dataset generation keyed by the spec tag.
inline const FloatMatrix& dataset(const data::DatasetSpec& spec) {
  static std::map<std::string, std::unique_ptr<FloatMatrix>> cache;
  static std::mutex mutex;
  std::lock_guard<std::mutex> lock(mutex);
  auto& slot = cache[data::describe(spec)];
  if (!slot) slot = std::make_unique<FloatMatrix>(data::generate(spec));
  return *slot;
}

/// Seed of the ground-truth point sample.
inline constexpr std::uint64_t kTruthSeed = 12345;

/// Cached sampled ground truth (sample of `sample` points, k neighbors).
inline const exact::SampledTruth& truth(const data::DatasetSpec& spec,
                                        std::size_t k, std::size_t sample) {
  static std::map<std::string, std::unique_ptr<exact::SampledTruth>> cache;
  static std::mutex mutex;
  const std::string key =
      data::describe(spec) + "-k" + std::to_string(k) + "-s" + std::to_string(sample);
  std::lock_guard<std::mutex> lock(mutex);
  auto& slot = cache[key];
  if (!slot) {
    slot = std::make_unique<exact::SampledTruth>(
        exact::sampled_ground_truth(pool(), dataset(spec), k, sample, kTruthSeed));
  }
  return *slot;
}

/// Standard clustered workload of the sweeps (structure like real feature
/// sets; n and dim vary per experiment).
inline data::DatasetSpec clustered(std::size_t n, std::size_t dim) {
  data::DatasetSpec spec;
  spec.kind = data::DatasetKind::kClusters;
  spec.n = n;
  spec.dim = dim;
  spec.clusters = std::max<std::size_t>(8, n / 256);
  spec.cluster_spread = 0.08f;
  spec.seed = 4242;
  return spec;
}

/// Recall of an approximate graph against the cached sampled truth.
inline double sampled_recall(const KnnGraph& graph,
                             const data::DatasetSpec& spec, std::size_t k,
                             std::size_t sample = 200) {
  return exact::recall(graph, truth(spec, k, sample));
}

}  // namespace wknng::bench
