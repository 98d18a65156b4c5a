#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace wknng::obs {
class MetricsRegistry;
}  // namespace wknng::obs

namespace wknng::serve {

// The serving metrics are built from the shared observability instruments
// (obs/metrics.hpp) — one Counter/Histogram implementation, one percentile
// contract, shared with the central registry. The aliases keep the historical
// serve:: spellings working.
using obs::Counter;
using obs::Histogram;
using obs::latency_bounds_us;
using obs::size_bounds;

/// The embedded metrics layer of one ServeEngine: monotonic counters plus
/// fixed-bucket latency histograms, dumped as a single JSON object. All
/// members are safe to update from any engine thread.
struct ServeMetrics {
  // Counters.
  Counter enqueued;         ///< requests accepted into the queue
  Counter completed;        ///< futures fulfilled (any status)
  Counter ok;               ///< completed with neighbors in time
  Counter timed_out;        ///< typed timeout results (deadline passed)
  Counter shed;             ///< rejected at admission (queue full / shutdown)

  /// Requests whose deadline expired before dispatch — rejected un-executed
  /// at batch triage. Disjoint from `shed` (admission-time OverloadShed) and
  /// a strict subset of `timed_out` (which also counts requests that ran but
  /// finished late). Exported as wknng_serve_rejected_deadline_total next to
  /// wknng_serve_rejected_overload_total so a Prometheus reader never has to
  /// infer which rejection path fired.
  Counter rejected_deadline;
  Counter failed;           ///< batch execution failed with a typed error
  Counter batches;          ///< micro-batches dispatched
  Counter queries;          ///< queries actually executed by the kernel
  Counter points_visited;   ///< distance evaluations across executed queries
  Counter snapshots_published;

  /// Serve-path optimization (opt layer). `optimized_queries` counts queries
  /// answered through the pruned/CSR layout (subset of `queries`);
  /// `budget_capped` counts runs a visit budget stopped short of
  /// convergence; `escalations` counts adaptive re-runs at a higher budget
  /// rung (one query escalated twice counts twice).
  Counter optimized_queries;
  Counter budget_capped;
  Counter escalations;

  // Histograms.
  Histogram latency_us{latency_bounds_us()};   ///< enqueue → future fulfilled
  Histogram queue_us{latency_bounds_us()};     ///< enqueue → batch dispatch
  /// Batch dispatch → batch done, one sample per executed request (failed
  /// batches included), so queue_us + service_us ≈ latency_us per request.
  Histogram service_us{latency_bounds_us()};
  Histogram batch_size{size_bounds(65536.0)};  ///< dispatched batch sizes
  Histogram visited{size_bounds(1e9)};         ///< per-request points visited

  std::string to_json() const;
};

/// Link every ServeMetrics instrument into the central registry as live
/// `wknng_serve_*` series — a scrape reads the engine's current values with
/// no copying. `m` must outlive the registry's exports (render the scrape
/// before the engine is destroyed).
void register_metrics(obs::MetricsRegistry& reg, const ServeMetrics& m);

}  // namespace wknng::serve
