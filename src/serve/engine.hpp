#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/matrix.hpp"
#include "common/thread_pool.hpp"
#include "core/graph_search.hpp"
#include "obs/audit.hpp"
#include "obs/params.hpp"
#include "obs/slo.hpp"
#include "opt/budget.hpp"
#include "serve/batcher.hpp"
#include "serve/metrics.hpp"
#include "serve/snapshot.hpp"

namespace wknng::serve {

/// Engine policy knobs. Batch formation is work-conserving: an idle
/// executor dispatches whatever is queued (up to max_batch) without waiting
/// for a full batch, and batches grow only from the backlog that builds
/// while executors are busy (see MicroBatcher).
/// The engine serves each snapshot as it is handed: a caller that wants the
/// optimized layout attaches it with with_serving_layout (or
/// DynamicParams::optimize) before constructing the engine or publishing.
struct ServeOptions {
  std::size_t max_batch = 32;          ///< batch cap (queries per batch)
  std::size_t workers = 2;             ///< batch executor threads
  std::size_t queue_capacity = 4096;   ///< pending requests before shedding
  std::uint64_t default_deadline_us = 0;  ///< per-request default; 0 = none
  /// Kernel parameters (k, beam, seed), applied to every batch whatever the
  /// snapshot carries: `search.patience` / `search.visit_budget` terminate
  /// descents early, `search.rerank_depth` sets the SQ8 tier's exact-rerank
  /// depth (see core::SearchParams; all default to off / auto).
  core::SearchParams search;
  obs::ObsParams obs;                  ///< span-tracing participation knobs

  /// Learned per-query budgets: predict a cheap rung for every fresh query,
  /// re-run the (few) queries the rung capped at successively higher rungs,
  /// feed completed costs back to the learner. Overrides
  /// `search.visit_budget`.
  /// Escalation re-runs make per-query latency depend on the learned ladder
  /// (and therefore on observation order), so results stay correct but the
  /// visit *counts* are no longer a pure function of the request — keep this
  /// off when bit-reproducible accounting matters.
  bool adaptive_budget = false;
  opt::BudgetOptions budget;

  /// Online SLO & quality plane (obs/slo.hpp, obs/audit.hpp). With `slo` on
  /// the engine owns an SloTracker fed from every completion (windows ticked
  /// by request *tag*, batches by batch index — counters, so replays are
  /// bit-identical) and every snapshot publication. `audit.fraction > 0`
  /// additionally runs the sampled recall auditor: answered queries chosen
  /// by counter-hash of their tag are re-answered exactly against the
  /// snapshot they were served from, and the rolling estimate feeds the
  /// tracker's recall objective. The flight recorder is ambient, not an
  /// engine option: install one with obs::ScopedFlightRecording and every
  /// completion is recorded, at the cost of one atomic load when none is.
  bool slo = false;
  obs::SloTrackerOptions slo_options;
  obs::AuditOptions audit;
};

/// Batched, deadline-aware query serving over a K-NN graph.
///
/// Request path: `submit` assigns the request an id and a determinism tag,
/// stamps its deadline, and enqueues it (or sheds, typed, when the queue is
/// full). An idle executor thread takes everything queued, up to
/// `max_batch`, as one micro-batch, pins the current GraphSnapshot, and
/// runs the warp-per-query `core::search_batch` kernel over the snapshot's
/// search target (GraphSnapshot::search_target: its layout if it carries
/// one, its raw graph otherwise, plus its norm cache and SQ8 tier) on the
/// shared ThreadPool — several batches in flight use the pool's multi-job
/// scheduling, the substrate's analogue of concurrent kernels on one device.
///
/// Snapshots: `publish` atomically swaps the graph (std::shared_ptr store);
/// in-flight batches finish on the snapshot they pinned, new batches see the
/// new one. `dynamic::DynamicKnng` can therefore insert and publish while
/// the engine serves (tests/serve/test_snapshot_swap.cpp).
///
/// Deadlines: a request whose deadline passes before dispatch is answered
/// with a typed timeout result (DeadlineExceededError vocabulary) and never
/// executed — shed-load accounting, not silent drops. A batch that finishes
/// past a request's deadline still returns the neighbors, marked kTimeout.
///
/// Determinism: a request's neighbors are a pure function of (snapshot,
/// query vector, search params, tag). With caller-assigned tags (see the
/// loadgen) the same seed and config reproduce bit-identical per-request
/// results for any worker count, batching, or timing.
class ServeEngine {
 public:
  ServeEngine(ThreadPool& pool, ServeOptions options,
              std::shared_ptr<const GraphSnapshot> initial);
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Enqueues one query (dimension must match the current snapshot).
  /// `deadline_us` overrides the default (0 = use default); `tag` seeds the
  /// query's RNG stream. The future always resolves — ok, timeout, shed, or
  /// failed — it never throws on the serving path.
  std::future<QueryResult> submit(std::vector<float> query,
                                  std::uint64_t deadline_us, std::uint64_t tag);

  /// Auto-tagged convenience: tag = the assigned request id.
  std::future<QueryResult> submit(std::vector<float> query,
                                  std::uint64_t deadline_us = 0);

  /// Atomically swaps the served snapshot (never null), served as handed.
  void publish(std::shared_ptr<const GraphSnapshot> next);
  std::shared_ptr<const GraphSnapshot> snapshot() const {
    return slot_.current();
  }

  /// Blocks until every accepted request has been answered.
  void drain();

  /// Drains the queue, stops the executors, and joins them (idempotent; the
  /// destructor calls it). Requests submitted after stop() are shed. Stop
  /// overrides an active dispatch hold.
  void stop();

  /// Holds batch dispatch while the returned guard lives: requests are still
  /// admitted (and shed at queue capacity) but none is dispatched, so on
  /// release they leave together, up to `max_batch` per batch. For tests
  /// that need a queue occupied or a deadline passed before dispatch. The
  /// guard must not outlive the engine.
  [[nodiscard]] MicroBatcher::Hold hold_dispatch() { return batcher_.hold(); }

  const ServeMetrics& metrics() const { return metrics_; }
  std::string metrics_json() const { return metrics_.to_json(); }
  const ServeOptions& options() const { return options_; }

  /// The adaptive budget learner; null unless `adaptive_budget` is on.
  const opt::BudgetController* budget_controller() const {
    return budget_.get();
  }

  /// The SLO tracker; null unless `options.slo` is on.
  obs::SloTracker* slo_tracker() const { return slo_.get(); }
  /// The recall auditor; null unless `options.audit.fraction > 0`.
  obs::RecallAuditor* auditor() const { return auditor_.get(); }

 private:
  /// Per-batch context threaded into finish() so flight records and SLO
  /// events carry what only the batch knew (span id, live size, per-query
  /// budget escalations).
  struct BatchContext {
    std::uint64_t span_id = 0;
    std::uint32_t batch_size = 0;
    std::uint32_t escalations = 0;
    std::uint64_t budget_rung = 0;
  };

  std::future<QueryResult> submit_impl(std::vector<float> query,
                                       std::uint64_t deadline_us,
                                       std::uint64_t id, std::uint64_t tag);
  void worker_loop();
  void run_batch(std::vector<Request> batch);

  /// One batch through the kernel: predicted budget, then escalation
  /// re-runs for the queries the rung capped (adaptive mode).
  core::BatchSearchResult run_search(const core::SearchTarget& target,
                                     const FloatMatrix& queries,
                                     std::span<const std::uint64_t> tags,
                                     std::vector<std::uint32_t>* escalations,
                                     std::vector<std::uint64_t>* budgets);
  void finish(Request& r, QueryResult qr,
              std::chrono::steady_clock::time_point now,
              const BatchContext* ctx = nullptr);
  void maybe_audit(const Request& r, const QueryResult& qr,
                   const std::shared_ptr<const GraphSnapshot>& snap);

  ThreadPool* pool_;
  ServeOptions options_;
  SnapshotSlot slot_;
  MicroBatcher batcher_;
  ServeMetrics metrics_;
  core::SearchScratch scratch_;
  std::unique_ptr<opt::BudgetController> budget_;
  std::unique_ptr<obs::SloTracker> slo_;
  std::unique_ptr<obs::RecallAuditor> auditor_;

  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> in_flight_{0};
  std::atomic<std::uint64_t> batch_index_{0};  ///< deterministic span ids
  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;

  std::vector<std::thread> workers_;
  std::atomic<bool> stopped_{false};
};

}  // namespace wknng::serve
