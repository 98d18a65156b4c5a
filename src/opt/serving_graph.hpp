#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/matrix.hpp"

namespace wknng::opt {

/// Knobs of the serve-graph optimization pipeline (opt::optimize_serving).
struct OptimizeOptions {
  /// Relative-neighborhood occlusion pruning (the RNN-Descent rule from
  /// GRNND): drop edge (p,q) when some closer kept neighbor r occludes it —
  /// d(p,r) < d(p,q) and d(q,r) < d(p,q). Occluded edges add expansion work
  /// without adding navigability, so dropping them trades nothing for degree.
  bool prune = true;

  /// Keep-floor: a pruned row never drops below this many edges (the nearest
  /// dropped candidates are re-admitted, closest first), so sparse regions
  /// keep enough fan-out to stay navigable. Rows shorter than this in the
  /// source graph are kept whole.
  std::size_t min_degree = 4;

  /// BFS relayout: renumber rows in breadth-first order from the highest
  /// in-degree hub (ties to the lowest id; each exhausted component restarts
  /// at the next unvisited hub), so the neighborhoods a descent walks are
  /// adjacent in memory. Off = identity permutation (CSR packing and
  /// pruning still apply).
  bool reorder = true;
};

/// A finished K-NNG post-processed for serving: occlusion-pruned, packed
/// into CSR, rows renumbered into BFS order with the base vectors gathered
/// to match, plus the old<->new permutation that keeps externally visible
/// ids stable. Built once per published graph by opt::optimize_serving;
/// searched through core::SearchTarget::over_layout.
///
/// Id spaces: `neighbors`, `exclude`, `norms` and `base` rows live in the
/// *new* (permuted) space; `new_to_old[i]` maps a new id back to the source
/// graph's row (what callers see), `old_to_new` is its inverse. A layout is
/// only valid against the exact graph/base/tombstones it was built from —
/// `source_version` records which published snapshot that was, and the
/// serving engine refuses to pair a layout with any other version.
struct ServingGraph {
  std::size_t dim = 0;
  std::size_t source_k = 0;          ///< row width of the source graph
  std::uint64_t source_version = 0;  ///< snapshot version built from

  std::vector<std::uint32_t> offsets;    ///< n+1 CSR row starts
  std::vector<std::uint32_t> neighbors;  ///< edge targets, new-id space
  FloatMatrix base;                      ///< base rows gathered into new order
  std::vector<float> norms;         ///< ||row||^2 per new id (empty in strict)
  std::vector<std::uint32_t> new_to_old;
  std::vector<std::uint32_t> old_to_new;
  std::vector<std::uint8_t> exclude;  ///< permuted tombstones (may be empty)

  // Pipeline stats (exported as obs gauges by opt::register_serving_metrics).
  std::uint64_t edges_before = 0;
  std::uint64_t edges_after = 0;
  std::size_t min_degree = 0;
  bool pruned = false;
  bool reordered = false;

  std::size_t n() const { return new_to_old.size(); }

  /// CSR row of new-id `id`: edge targets in ascending-distance order.
  std::span<const std::uint32_t> row(std::uint32_t id) const {
    return {neighbors.data() + offsets[id], offsets[id + 1] - offsets[id]};
  }

  /// Structural self-check (permutation bijective, CSR well-formed, shapes
  /// consistent). Throws wknng::Error; used by the persistence reader and
  /// the dynamic republish path before a layout is allowed to serve.
  void check_valid() const {
    const std::size_t count = n();
    WKNNG_CHECK_MSG(old_to_new.size() == count, "permutation shape mismatch");
    WKNNG_CHECK_MSG(base.rows() == count && base.cols() == dim,
                    "gathered base is " << base.rows() << "x" << base.cols()
                                        << ", expected " << count << "x"
                                        << dim);
    WKNNG_CHECK_MSG(offsets.size() == count + 1 && offsets.front() == 0 &&
                        offsets.back() == neighbors.size(),
                    "CSR offsets malformed");
    WKNNG_CHECK_MSG(norms.empty() || norms.size() == count,
                    "norm cache shape mismatch");
    WKNNG_CHECK_MSG(exclude.empty() || exclude.size() == count,
                    "exclusion mask shape mismatch");
    std::vector<std::uint8_t> seen(count, 0);
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint32_t old_id = new_to_old[i];
      WKNNG_CHECK_MSG(old_id < count && !seen[old_id] &&
                          old_to_new[old_id] == i,
                      "permutation is not a bijection at new id " << i);
      seen[old_id] = 1;
      WKNNG_CHECK_MSG(offsets[i] <= offsets[i + 1], "CSR offsets not sorted");
    }
    for (const std::uint32_t nb : neighbors) {
      WKNNG_CHECK_MSG(nb < count, "edge target " << nb << " out of range");
    }
  }
};

}  // namespace wknng::opt
