#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/knn_graph.hpp"
#include "common/matrix.hpp"
#include "common/thread_pool.hpp"
#include "common/topk.hpp"
#include "kernels/sq8.hpp"
#include "opt/serving_graph.hpp"
#include "simt/stats.hpp"

namespace wknng::core {

/// The descent's candidate frontier: a min-heap over borrowed storage, popped
/// in ascending (dist, id) order — the exact pop sequence of the
/// std::priority_queue it replaced (all elements are distinct, since the
/// visited marks admit each id once, so the order is total and bit-identical
/// regardless of internal heap layout). Two properties matter on the serving
/// path:
///
///  - *No per-query allocation*: the storage vector lives in a
///    SearchScratch::Slot and keeps its capacity across queries; `reset`
///    only clears the length.
///  - *Bounded*: when the heap reaches its capacity, `push` first evicts
///    every element whose distance exceeds the caller's current pruning
///    bound (the result heap's worst). Such elements can never be expanded:
///    the descent breaks at the first popped candidate above the bound, and
///    the bound only tightens — so evicting them is behavior-identical, it
///    just reaches the "frontier exhausted" exit instead of the "bound
///    crossed" exit. If nothing is evictable (bound still +inf), the storage
///    grows — correctness over the cap, amortized by slot reuse.
class FrontierHeap {
 public:
  /// Binds to `storage` (cleared) with a soft capacity of `capacity`.
  FrontierHeap(std::vector<Neighbor>& storage, std::size_t capacity)
      : heap_(&storage), cap_(capacity < 4 ? 4 : capacity) {
    heap_->clear();
  }

  bool empty() const { return heap_->empty(); }
  std::size_t size() const { return heap_->size(); }

  /// The minimum element (undefined when empty).
  const Neighbor& top() const { return heap_->front(); }

  /// Inserts `nb`; `bound` is the caller's current pruning threshold
  /// (elements strictly above it are evictable, see class comment).
  void push(Neighbor nb, float bound) {
    if (heap_->size() >= cap_) compact(bound);
    heap_->push_back(nb);
    std::push_heap(heap_->begin(), heap_->end(), Cmp{});
  }

  /// Removes and returns the minimum element.
  Neighbor pop() {
    std::pop_heap(heap_->begin(), heap_->end(), Cmp{});
    const Neighbor nb = heap_->back();
    heap_->pop_back();
    return nb;
  }

 private:
  // std::*_heap build a max-heap under the comparator; "greater" makes the
  // front the minimum Neighbor — the same (dist, id) pop order as the old
  // MinHeapCmp priority_queue.
  struct Cmp {
    bool operator()(const Neighbor& a, const Neighbor& b) const {
      return b < a;
    }
  };

  /// Drops every element with dist > bound, then re-heapifies. Quadratic-free
  /// single pass; a no-op when bound is +inf.
  void compact(float bound) {
    auto it = std::remove_if(
        heap_->begin(), heap_->end(),
        [bound](const Neighbor& nb) { return nb.dist > bound; });
    if (it == heap_->end()) return;  // nothing evictable: grow instead
    heap_->erase(it, heap_->end());
    std::make_heap(heap_->begin(), heap_->end(), Cmp{});
  }

  std::vector<Neighbor>* heap_;
  std::size_t cap_;
};

/// Out-of-sample query answering over a built K-NN graph (GNNS-style
/// best-first descent; Hajebi et al., IJCAI 2011) — the "similarity search"
/// application the abstract motivates, as a library facility.
///
/// A K-NN graph is only weakly navigable across cluster boundaries, so the
/// search seeds itself from the best of a scored random sample
/// (`entry_sample`) instead of raw random entries, then descends greedily
/// with a bounded frontier (`beam`).
struct SearchParams {
  std::size_t k = 10;             ///< results per query
  std::size_t entry_sample = 256; ///< random base points scored for entry
  std::size_t entry_keep = 8;     ///< best entries that seed the frontier
  std::size_t beam = 48;          ///< result/frontier width during descent
  std::uint64_t seed = 7;         ///< entry sampling seed

  /// Adaptive early termination: stop the descent once `patience` consecutive
  /// hop expansions admit nothing into the result/beam heap (the top-k has
  /// stopped improving). 0 disables the check — the descent runs until the
  /// frontier's best candidate is worse than the heap's worst, exactly the
  /// pre-existing stopping rule, so the default is bit-identical to before.
  std::size_t patience = 0;

  /// Per-query distance-evaluation budget: the descent stops expanding once
  /// `visits` reaches this many scored candidates (checked at hop
  /// granularity, so a query may overshoot by one row of expansions). A query
  /// stopped by its budget while the frontier still held a useful candidate
  /// is flagged in BatchSearchResult::capped — the signal the serving side's
  /// bucket learner escalates on. 0 = unlimited (bit-identical to before).
  std::size_t visit_budget = 0;

  /// Compressed-tier rerank depth: how many sq8-scored candidates survive
  /// to the exact fp32 rerank before the top-k is emitted. 0 = auto (2*k);
  /// explicit values are clamped up to k. Ignored unless an Sq8View is
  /// supplied to the search.
  std::size_t rerank_depth = 0;
};

struct SearchStats {
  std::uint64_t points_visited = 0;   ///< distance evaluations, total
  std::uint64_t queries = 0;
};

/// Admission validation shared by every search entry point (and by
/// serve::ServeEngine at construction, so a misconfigured engine fails at
/// setup instead of at the first query). Throws wknng::SearchParamError on a
/// configuration that cannot produce meaningful results:
///  - `k == 0` (no results requested)
///  - `entry_sample == 0` (nothing would seed the descent; every query would
///    silently come back empty — historically this was clamped into the
///    entry_keep bound and slipped through)
/// `entry_keep > entry_sample` remains a clamp, not an error: the keep heap
/// simply cannot outgrow the sample feeding it.
void validate_search_params(const SearchParams& params);

/// Reusable per-worker search scratch — the arena a serving loop hands to
/// every batched search so the hot path stops paying an O(n) visited-array
/// allocation+clear per query. Each worker thread lazily acquires a private
/// slot (one mutex-protected lookup per query); inside a slot, visited marks
/// are epoch-stamped so "clear" is a counter bump. The scratch holds nothing
/// derived from the data searched, so one scratch may serve any base.
class SearchScratch {
 public:
  struct Slot {
    std::vector<std::uint32_t> mark;  ///< epoch stamp per base point
    std::uint32_t epoch = 0;
    std::vector<std::uint32_t> sample;
    std::vector<std::uint32_t> expand;
    std::vector<float> qprep;  ///< prepared-query buffer (sq8 path only)
    std::vector<Neighbor> frontier;  ///< FrontierHeap storage (capacity reused)

    /// Starts one query over a base of `n` points: grows `mark` if needed
    /// and invalidates every previous mark by bumping the epoch.
    void begin(std::size_t n) {
      if (mark.size() < n) {
        mark.assign(n, 0);
        epoch = 0;
      }
      if (++epoch == 0) {  // epoch wrapped: hard-clear once every 2^32 queries
        std::fill(mark.begin(), mark.end(), 0);
        epoch = 1;
      }
    }

    /// Returns whether `id` was already visited this query; marks it either way.
    bool test_and_set(std::uint32_t id) {
      if (mark[id] == epoch) return true;
      mark[id] = epoch;
      return false;
    }
  };

  /// The calling thread's slot (created on first use).
  Slot& local();

 private:
  std::mutex mutex_;
  std::unordered_map<std::thread::id, std::unique_ptr<Slot>> slots_;
};

/// Result of a batched search: one KnnGraph row per query plus each query's
/// distance-evaluation count. `visits` is written per query by its own warp
/// (no shared accumulator), so summing it is deterministic regardless of
/// worker count or schedule.
struct BatchSearchResult {
  KnnGraph results;
  std::vector<std::uint64_t> visits;

  /// capped[i] != 0 when query i was stopped by `SearchParams::visit_budget`
  /// while the frontier still held a candidate inside the result heap's
  /// bound — i.e. the budget, not convergence, ended the search. All zeros
  /// when no budget is set. The serving engine's bucket controller escalates
  /// exactly these queries to the next budget rung.
  std::vector<std::uint8_t> capped;
};

/// What one batched search reads: a non-owning view over data whose owner
/// (a serve::GraphSnapshot, an opt::ServingGraph, a shard) also owns the
/// norm cache, so the cache lives and dies with the rows it describes.
///
/// The descent walks ids in the *base* id space: `base` rows, `norms`, the
/// adjacency and `exclude` all share it. `old_to_new` / `new_to_old` relate
/// it to the caller's *source* id space (entry samples are drawn in source
/// ids, emitted neighbors are mapped back); both empty means the two spaces
/// coincide. `sq8` codes stay in source-row order, so the scorer reads code
/// row `new_to_old[id]` — a layout composes with the compressed tier without
/// gathering the codes.
struct SearchTarget {
  const FloatMatrix* base = nullptr;
  std::span<const float> norms;  ///< ||row||^2 per base row; empty = none

  /// Adjacency: padded KnnGraph rows (kInvalid-terminated), or — when
  /// `graph` is null — a CSR (`csr_offsets` has one entry per row plus one).
  const KnnGraph* graph = nullptr;
  std::span<const std::uint32_t> csr_offsets;
  std::span<const std::uint32_t> csr_neighbors;

  std::span<const std::uint32_t> old_to_new;  ///< empty = identity
  std::span<const std::uint32_t> new_to_old;  ///< empty = identity
  kernels::Sq8View sq8;                   ///< compressed tier; optional
  std::span<const std::uint8_t> exclude;  ///< per base row; empty = none

  /// A builder graph over `base` (source order throughout).
  static SearchTarget over_graph(const FloatMatrix& base,
                                 std::span<const float> norms,
                                 const KnnGraph& graph,
                                 kernels::Sq8View sq8 = {},
                                 std::span<const std::uint8_t> exclude = {});

  /// An optimized layout: its gathered rows, norms, CSR and permutation.
  /// `exclude` (permuted space) replaces the layout's baked `sg.exclude`
  /// when non-empty.
  static SearchTarget over_layout(const opt::ServingGraph& sg,
                                  std::span<const std::uint8_t> exclude = {},
                                  kernels::Sq8View sq8 = {});
};

/// The search kernel: GNNS best-first descent, one warp per query, over any
/// SearchTarget. Every other entry point in this header is an adapter.
///
/// `tags[i]` seeds query i's RNG stream (entry sampling). Results are a pure
/// function of (target, params, query vector, tag) — independent of how
/// requests were batched together, which worker ran them, or what else was in
/// the batch. This is the determinism contract `serve::ServeEngine` relies
/// on: it tags each request once at admission, so replays and re-batched runs
/// return bit-identical neighbors. An empty `tags` span means "use the row
/// index", which reproduces the classic `graph_search` behavior.
///
/// External stability under a permutation: entries are drawn in source ids
/// and mapped through `old_to_new`, and every emitted neighbor is mapped
/// back through `new_to_old` — so an unpruned relayout of a graph returns
/// the same (id, dist) rows and visit counts as the graph itself
/// (tie-breaks between equal-distance points are the only possible
/// difference).
///
/// Degenerate inputs are clamped, never UB:
///  - zero queries → an empty result, no kernel launch
///  - `k > base.rows()` → rows carry all base points, tail slots invalid
///  - `entry_keep > entry_sample` → keep clamped to the sample size
///  - `entry_sample` larger than the base → sampling stops at n points
///
/// `scratch` may be null (a private arena is used for the call).
///
/// Compressed tier: when `target.sq8` is valid every candidate distance
/// during entry scoring and descent streams the u8 code rows asymmetrically,
/// and the top `params.rerank_depth` survivors are rescored against the fp32
/// base rows before the exact top-k is emitted. An invalid view leaves the
/// search bit-identical to the uncompressed path.
///
/// Exclusions: points with a non-zero `exclude` byte (tombstones in the
/// dynamic index) are *never admitted to the result top-k* (nor to the sq8
/// exact rerank) but remain navigable: the descent still walks through them,
/// so a graph whose edges have not yet been repaired after a delete keeps
/// its connectivity.
///
/// Data movement: while one warp-tile of candidates is scored, the next
/// tile's rows (code rows in sq8 mode) and the frontier head's adjacency row
/// are prefetched. Rows of at most one cache line (dim <= 16) skip the row
/// hint, which there lands no earlier than the load it precedes.
BatchSearchResult search_batch(ThreadPool& pool, const SearchTarget& target,
                               const FloatMatrix& queries,
                               std::span<const std::uint64_t> tags,
                               const SearchParams& params,
                               SearchScratch* scratch = nullptr,
                               simt::StatsAccumulator* acc = nullptr);

/// search_batch over a builder graph. A one-shot adapter: it computes the
/// base's norm cache for this call (long-lived callers keep one next to
/// their rows and call search_batch with SearchTarget::over_graph).
/// `exclude`, when non-empty, has one byte per base point.
BatchSearchResult graph_search_batch(ThreadPool& pool, const FloatMatrix& base,
                                     const KnnGraph& graph,
                                     const FloatMatrix& queries,
                                     std::span<const std::uint64_t> tags,
                                     const SearchParams& params,
                                     SearchScratch* scratch = nullptr,
                                     simt::StatsAccumulator* acc = nullptr,
                                     const kernels::Sq8View* sq8 = nullptr,
                                     std::span<const std::uint8_t> exclude = {});

/// search_batch over an optimized layout (opt::optimize_serving): pruned,
/// BFS-reordered CSR with gathered base rows and norms. Emitted ids are in
/// the source graph's id space. Tombstones travel inside the layout
/// (`sg.exclude`, permuted at build time), which is why a layout must never
/// outlive the snapshot version it was built from — see
/// opt::ServingGraph::source_version.
///
/// `exclude`, when non-empty, must have one byte per layout row *in the
/// permuted id space* and replaces `sg.exclude` — the dynamic index uses
/// this to serve delete-only publications through a reused layout.
/// `sq8`, when valid, is the source base's compressed tier in source-row
/// order; it is scored through the layout's permutation.
BatchSearchResult serving_search_batch(ThreadPool& pool,
                                       const opt::ServingGraph& sg,
                                       const FloatMatrix& queries,
                                       std::span<const std::uint64_t> tags,
                                       const SearchParams& params,
                                       std::span<const std::uint8_t> exclude = {},
                                       SearchScratch* scratch = nullptr,
                                       simt::StatsAccumulator* acc = nullptr,
                                       const kernels::Sq8View* sq8 = nullptr);

/// Answers every query against `base` using `graph` for navigation; one
/// warp per query on the SIMT substrate. Returns a KnnGraph with one row per
/// query (ids refer to base points). Thin wrapper over `graph_search_batch`
/// with row-index tags; `stats` totals are merged per-query in index order
/// (deterministic for any pool size).
KnnGraph graph_search(ThreadPool& pool, const FloatMatrix& base,
                      const KnnGraph& graph, const FloatMatrix& queries,
                      const SearchParams& params,
                      SearchStats* stats = nullptr,
                      simt::StatsAccumulator* acc = nullptr,
                      const kernels::Sq8View* sq8 = nullptr);

}  // namespace wknng::core
