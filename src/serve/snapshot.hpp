#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/knn_graph.hpp"
#include "common/matrix.hpp"
#include "core/graph_search.hpp"
#include "kernels/kernels.hpp"
#include "kernels/sq8.hpp"
#include "opt/serving_graph.hpp"

namespace wknng {
class ThreadPool;
}  // namespace wknng

namespace wknng::serve {

/// One immutable (base points, K-NN graph) pair served to queries. Builders
/// (core::build_knng, dynamic::DynamicKnng) construct a snapshot off to the
/// side and publish it whole; the serving path never sees a half-updated
/// graph. `version` is the publisher's monotonic label — responses carry it
/// so a client (or a test) can say exactly which graph answered them.
///
/// The snapshot owns the base's squared-norm cache (`norms`, computed at
/// construction like the SQ8 term cache), so the cache can never describe
/// another snapshot's rows.
///
/// A snapshot may additionally carry the base's SQ8 compressed tier (the
/// code matrix the builder trained under `compression=sq8`, plus the
/// per-row term cache). When present, batch executors score candidates
/// against the compressed rows and rerank exactly; when absent, serving is
/// bit-identical to the uncompressed path.
/// A snapshot published by the dynamic index (src/dynamic) additionally
/// carries the mutable-lifecycle metadata frozen at publish time:
/// `tombstones` (one byte per base row; non-zero = deleted, the executor
/// hands it to the search kernel as the exclusion mask so deleted points are
/// invisible to results the moment the snapshot lands) and `external_ids`
/// (internal row -> stable client-facing id; the executor remaps every
/// emitted neighbor, so ids survive compaction's row rewrites). Both are
/// null on static snapshots, which serve exactly as before.
struct GraphSnapshot {
  std::uint64_t version = 0;
  FloatMatrix base;
  KnnGraph graph;
  std::vector<float> norms;  ///< ||row||^2 per base row (empty in strict mode)
  std::shared_ptr<const kernels::Sq8Matrix> sq8;  ///< optional compressed tier
  std::vector<float> sq8_terms;  ///< per-row term cache (empty in strict mode)
  std::shared_ptr<const std::vector<std::uint8_t>> tombstones;
  std::shared_ptr<const std::vector<std::uint32_t>> external_ids;

  /// Optional optimized serving layout (opt::optimize_serving over this
  /// snapshot's graph): pruned edges, BFS/CSR relayout, gathered base rows.
  /// Batch executors search through it when present (the sq8 tier, if any,
  /// is scored through its permutation); null serves the raw graph.
  std::shared_ptr<const opt::ServingGraph> serving;

  /// Tombstones re-permuted into `serving`'s id space, frozen at publish.
  /// Lets the dynamic index reuse a structurally-valid layout across
  /// delete-only publications: the mask is rebuilt (O(n) permute) every
  /// publish while the layout itself is rebuilt only on structural change.
  /// Null → the layout's own baked `exclude` applies.
  std::shared_ptr<const std::vector<std::uint8_t>> serving_exclude;

  GraphSnapshot() = default;
  GraphSnapshot(std::uint64_t v, FloatMatrix b, KnnGraph g,
                std::shared_ptr<const kernels::Sq8Matrix> codes = nullptr)
      : version(v), base(std::move(b)), graph(std::move(g)),
        norms(kernels::norm_cache(base)),
        sq8(std::move(codes)),
        sq8_terms(sq8 != nullptr ? kernels::sq8_term_cache(*sq8)
                                 : std::vector<float>{}) {}

  /// Borrowed view of the compressed tier; `!valid()` when the snapshot has
  /// no codes. The view aliases this snapshot — readers keep the snapshot
  /// pinned (shared_ptr) for as long as they score through the view.
  kernels::Sq8View sq8_view() const {
    if (sq8 == nullptr) return {};
    return {sq8.get(), sq8_terms};
  }

  /// The exclusion mask batch executors pass to the search kernel: empty for
  /// static snapshots or when the mask's shape does not match the base.
  std::span<const std::uint8_t> exclusion_mask() const {
    if (tombstones == nullptr || tombstones->size() != base.rows()) return {};
    return {tombstones->data(), tombstones->size()};
  }

  /// Maps an internal row id to its stable external id (identity when the
  /// snapshot carries no mapping).
  std::uint32_t external_id(std::uint32_t internal) const {
    if (external_ids == nullptr || internal >= external_ids->size()) {
      return internal;
    }
    return (*external_ids)[internal];
  }

  /// The optimized layout to serve through, or null when the snapshot
  /// carries none or the layout's shape does not match this snapshot's base
  /// (a layout from another graph is never served).
  const opt::ServingGraph* serving_layout() const {
    if (serving == nullptr) return nullptr;
    if (serving->dim != base.cols() || serving->n() != base.rows()) {
      return nullptr;
    }
    return serving.get();
  }

  /// The exclusion mask for the optimized path, in the layout's permuted id
  /// space: the publish-time re-permuted tombstones when present, the
  /// layout's baked mask otherwise.
  std::span<const std::uint8_t> serving_exclusion() const {
    if (serving == nullptr) return {};
    if (serving_exclude != nullptr &&
        serving_exclude->size() == serving->n()) {
      return {serving_exclude->data(), serving_exclude->size()};
    }
    return {serving->exclude.data(), serving->exclude.size()};
  }

  /// What a batch executor searches: the optimized layout when one is
  /// served, the raw graph otherwise — with the sq8 tier, if carried, in
  /// either case. The target aliases this snapshot; keep it pinned.
  core::SearchTarget search_target() const {
    if (const opt::ServingGraph* sg = serving_layout()) {
      return core::SearchTarget::over_layout(*sg, serving_exclusion(),
                                             sq8_view());
    }
    return core::SearchTarget::over_graph(base, norms, graph, sq8_view(),
                                          exclusion_mask());
  }
};

/// The single-slot atomic publication point between one writer (the build /
/// dynamic-index side) and many readers (batch executors). Readers pin
/// the current snapshot with a shared_ptr copy; a publish is one atomic
/// store, after which new batches run on the new graph while in-flight
/// batches finish on the old one — it stays alive until its last reader
/// drops it. No locks, no reader/writer ordering requirements beyond the
/// store/load pair.
class SnapshotSlot {
 public:
  SnapshotSlot() = default;
  explicit SnapshotSlot(std::shared_ptr<const GraphSnapshot> initial)
      : slot_(std::move(initial)) {}

  SnapshotSlot(const SnapshotSlot&) = delete;
  SnapshotSlot& operator=(const SnapshotSlot&) = delete;

  std::shared_ptr<const GraphSnapshot> current() const {
    return slot_.load(std::memory_order_acquire);
  }

  void publish(std::shared_ptr<const GraphSnapshot> next) {
    slot_.store(std::move(next), std::memory_order_release);
  }

 private:
  std::atomic<std::shared_ptr<const GraphSnapshot>> slot_;
};

/// Convenience: snapshot the current state of an already-built graph.
inline std::shared_ptr<const GraphSnapshot> make_snapshot(
    std::uint64_t version, const FloatMatrix& base, const KnnGraph& graph) {
  return std::make_shared<const GraphSnapshot>(version, base, graph);
}

/// Same, carrying the compressed tier (e.g. BuildResult::sq8). A null
/// `codes` degrades to the uncompressed snapshot.
inline std::shared_ptr<const GraphSnapshot> make_snapshot(
    std::uint64_t version, const FloatMatrix& base, const KnnGraph& graph,
    std::shared_ptr<const kernels::Sq8Matrix> codes) {
  return std::make_shared<const GraphSnapshot>(version, base, graph,
                                               std::move(codes));
}

/// Returns a copy of `snap` carrying an optimized serving layout built from
/// its graph: occlusion pruning + BFS/CSR relayout (opt::optimize_serving),
/// with the snapshot's tombstones baked in and source_version stamped to the
/// snapshot's version. The original snapshot is untouched; publish the
/// returned one to serve through the optimized path. Building is the
/// publisher's cost — query threads never see a half-built layout.
std::shared_ptr<const GraphSnapshot> with_serving_layout(
    ThreadPool& pool, const std::shared_ptr<const GraphSnapshot>& snap,
    const opt::OptimizeOptions& options = {});

}  // namespace wknng::serve
