#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/knn_graph.hpp"
#include "common/matrix.hpp"
#include "common/thread_pool.hpp"
#include "core/graph_search.hpp"
#include "core/knn_set.hpp"
#include "core/params.hpp"
#include "data/wal.hpp"
#include "dynamic/metrics.hpp"
#include "obs/slo.hpp"
#include "opt/serving_graph.hpp"
#include "serve/snapshot.hpp"
#include "simt/stats.hpp"

namespace wknng::dynamic {

/// Knobs of the mutable lifecycle.
struct DynamicParams {
  /// Descent used to seed each inserted point's neighbors (search-then-
  /// connect): the kernel is core::graph_search_batch over the last published
  /// graph; `k` and `seed` are overridden from the index's BuildParams.
  core::SearchParams insert_search{
      .k = 0, .entry_sample = 64, .entry_keep = 8, .beam = 32};

  std::size_t repair_rounds = 1;    ///< NN-Descent rounds per repair pass
  std::size_t repair_threshold = 64;  ///< dirty rows before auto repair fires
  double compact_threshold = 0.25;  ///< tombstone ratio triggering compaction
  std::size_t wal_segment_bytes = 4u << 20;  ///< delta-log segment roll size

  /// Run threshold-driven repair/compaction inline after each mutation batch
  /// (the default). Off, the caller schedules `repair()` / `compact()` —
  /// what the CLI churn driver does to stop at exact versions.
  bool auto_maintain = true;

  /// Attach an optimized serving layout (opt::optimize_serving) to every
  /// published snapshot. The layout is rebuilt when its permutation or shape
  /// goes stale — always after an insert (row count changed) or a compaction
  /// (internal ids rewritten), and after more than `optimize_staleness`
  /// repair passes accumulated edge drift. Between rebuilds a delete-only
  /// publication reuses the layout with the current tombstone vector
  /// re-permuted into its id space, so queries on the optimized path never
  /// observe a stale permutation *or* a resurrected point.
  bool optimize = false;
  opt::OptimizeOptions optimize_options;
  std::size_t optimize_staleness = 4;  ///< repair passes tolerated per layout

  /// Invoked with every published snapshot (after the internal slot is
  /// updated) — the hook a ServeEngine wires `publish` through so queries
  /// move to the new version while in-flight batches finish on their pinned
  /// one.
  std::function<void(std::shared_ptr<const serve::GraphSnapshot>)> on_publish;

  /// SLO tracker fed a publication tick per published version (must outlive
  /// the index). For engineless use — when publications route through a
  /// ServeEngine that owns its own tracker, leave this null or the engine
  /// double-counts them.
  obs::SloTracker* slo = nullptr;
};

/// Point-in-time state summary (all counters under one lock acquisition).
struct DynamicState {
  std::uint64_t version = 0;
  std::size_t total_rows = 0;
  std::size_t live_rows = 0;
  std::size_t tombstones = 0;
  std::size_t dirty_rows = 0;
  std::uint64_t next_external = 0;
  double tombstone_ratio = 0.0;
};

/// The mutable K-NNG: owns the full dynamic lifecycle on top of the static
/// substrate — online inserts (search-then-connect: a graph descent finds
/// the new row's neighbors, then strategy-dispatched k-NN set updates add
/// the forward and reverse edges), tombstone deletes (invisible to
/// results immediately via the search kernel's exclusion mask, excluded from
/// candidate expansion lazily by repair/compaction), bounded dirty-region
/// NN-Descent repair, threshold-triggered compaction with a stable
/// external-id map, and a write-ahead delta log (data/wal.hpp) anchored to a
/// WKNNGCP1 base checkpoint.
///
/// Versioning: the base graph is version 1; every accepted state transition
/// (insert batch, delete batch, repair pass, compaction) appends one WAL
/// record, bumps the version by exactly one, and publishes a fresh
/// serve::GraphSnapshot. Because each transition is a deterministic function
/// of the state it runs on (two-phase inserts descend a frozen pre-batch
/// graph; repair rounds write only their own rows; compaction is a pure
/// remap), replaying base + log reproduces the published graph of any logged
/// version bit for bit — the crash-recovery contract CI proves by md5.
///
/// Concurrency: mutations and maintenance serialize on one writer mutex;
/// readers never take it — they pin published snapshots (serve::SnapshotSlot).
class DynamicKnng {
 public:
  /// Fresh index: builds the base graph over `base_points` with `params`
  /// through core::KnngBuilder (RP forest -> leaf pass -> refine rounds,
  /// run in the index's own k-NN sets), writes the WKNNGCP1 base checkpoint
  /// to `<dir>/base.ckpt`, opens WAL segment 1, and publishes version 1.
  /// `dir` must be writable; the compression tier is not supported
  /// (`params.compression` must be kNone). A non-finite base row throws
  /// wknng::MutationError before anything is built or written.
  DynamicKnng(ThreadPool& pool, const core::BuildParams& params,
              FloatMatrix base_points, std::string dir,
              DynamicParams dyn = DynamicParams{});

  /// Recovery: restores the base checkpoint from `<dir>/base.ckpt` (verified
  /// against core::build_signature of `params` and `base_points` — throws
  /// wknng::CheckpointMismatchError on any drift), replays every intact
  /// delta-log record, and publishes the recovered version. A torn tail left
  /// by SIGKILL is discarded; the next accepted mutation opens a new segment.
  struct Recover {};
  DynamicKnng(Recover, ThreadPool& pool, const core::BuildParams& params,
              FloatMatrix base_points, std::string dir,
              DynamicParams dyn = DynamicParams{});

  DynamicKnng(const DynamicKnng&) = delete;
  DynamicKnng& operator=(const DynamicKnng&) = delete;

  // --- Mutations (thread-safe; serialized on the writer mutex) -------------

  /// Inserts a batch of rows; returns their stable external ids. Typed
  /// admission (wknng::MutationError): empty batch, dimension mismatch, or
  /// any non-finite row rejects the whole batch before it reaches the log.
  std::vector<std::uint32_t> insert(const FloatMatrix& rows);

  /// Tombstones the given external ids. Ids that are unknown or already
  /// tombstoned are skipped; returns the number actually deleted (0 deletes
  /// nothing and logs nothing). Deleted points stop appearing in query
  /// results with the very next published snapshot.
  std::size_t erase(std::span<const std::uint32_t> external_ids);

  // --- Maintenance ---------------------------------------------------------

  /// Runs `rounds` dirty-region NN-Descent rounds (0 = DynamicParams
  /// default) over the dirty set on the shared pool. Returns row-rounds
  /// repaired (0 when the dirty set is empty — nothing is logged).
  std::size_t repair(std::size_t rounds = 0);

  /// Compacts now if any tombstones exist: rewrites live rows, drops
  /// tombstoned slots, remaps internal ids (external ids are stable).
  /// Returns whether a compaction ran.
  bool compact();

  /// Threshold-driven maintenance: repair when the dirty set crossed
  /// `repair_threshold`, compact when the tombstone ratio crossed
  /// `compact_threshold`. What mutations run inline under auto_maintain.
  void maintain();

  // --- Read side -----------------------------------------------------------

  std::shared_ptr<const serve::GraphSnapshot> snapshot() const {
    return slot_.current();
  }
  serve::SnapshotSlot& slot() { return slot_; }

  DynamicState state() const;
  std::uint64_t version() const;
  std::size_t dim() const { return dim_; }
  std::size_t k() const { return params_.k; }
  std::uint64_t signature() const { return signature_; }
  bool replay_torn_tail() const { return replay_torn_tail_; }
  const DynamicMetrics& metrics() const { return metrics_; }
  simt::Stats stats() const { return acc_.total(); }

  /// True while `external_id` resolves to a live (non-tombstoned) row.
  bool contains(std::uint32_t external_id) const;

  /// Canonical base-checkpoint path inside a WAL directory.
  static std::string base_checkpoint_path(const std::string& dir) {
    return dir + "/base.ckpt";
  }

 private:
  void init_base_from_checkpoint(const FloatMatrix& base_points);
  void publish_locked();
  void maintain_locked();

  // apply_* perform one logged state transition; `replaying` suppresses
  // side-channel effects that must not differ between live and replayed
  // application (there are none today — the flag only routes metrics).
  void apply_insert(const FloatMatrix& rows,
                    std::span<const std::uint32_t> external_ids,
                    bool replaying);
  void apply_delete(std::span<const std::uint32_t> external_ids,
                    bool replaying);
  std::size_t apply_repair(std::size_t rounds, bool replaying);
  void apply_compact(bool replaying);
  void apply_record(const data::WalRecord& rec);

  std::size_t repair_locked(std::size_t rounds);
  bool compact_locked();
  void mark_dirty(std::uint32_t internal);
  void refresh_gauges_locked();

  ThreadPool* pool_;
  core::BuildParams params_;
  DynamicParams dyn_;
  std::string dir_;
  std::size_t dim_ = 0;
  std::uint64_t signature_ = 0;
  bool replay_torn_tail_ = false;

  mutable std::mutex mu_;  ///< single-writer serialization
  FloatMatrix points_;     ///< internal rows (live + tombstoned)
  core::KnnSetArray sets_;
  KnnGraph graph_;  ///< extraction of sets_ at the last version bump
  std::vector<std::uint8_t> tombstone_;   ///< internal row -> deleted?
  std::vector<std::uint32_t> external_;   ///< internal -> external id
  std::unordered_map<std::uint32_t, std::uint32_t> intern_;  ///< external -> internal
  std::uint32_t next_external_ = 0;
  std::uint64_t version_ = 0;
  std::size_t tombstone_count_ = 0;
  std::vector<std::uint8_t> dirty_mark_;  ///< internal row -> dirty?
  std::vector<std::uint32_t> dirty_;      ///< dirty rows, insertion order

  std::unique_ptr<data::WalWriter> wal_;
  serve::SnapshotSlot slot_;
  DynamicMetrics metrics_;
  mutable simt::StatsAccumulator acc_;

  // Optimized-layout lifecycle (only under dyn_.optimize). The layout is
  // immutable once built; these fields decide, per publication, whether it
  // is still safe to reuse or must be rebuilt (see DynamicParams::optimize).
  std::shared_ptr<const opt::ServingGraph> serving_;
  bool force_reopt_ = false;       ///< permutation/shape invalidated
  std::size_t repairs_since_opt_ = 0;  ///< edge drift since the last build
};

}  // namespace wknng::dynamic
