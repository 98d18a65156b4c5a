#include "serve/metrics.hpp"

#include <sstream>

#include "obs/registry.hpp"

namespace wknng::serve {

std::string ServeMetrics::to_json() const {
  std::ostringstream os;
  os << "{\"counters\":{"
     << "\"enqueued\":" << enqueued.value()
     << ",\"completed\":" << completed.value() << ",\"ok\":" << ok.value()
     << ",\"timed_out\":" << timed_out.value() << ",\"shed\":" << shed.value()
     << ",\"rejected_overload\":" << shed.value()
     << ",\"rejected_deadline\":" << rejected_deadline.value()
     << ",\"failed\":" << failed.value() << ",\"batches\":" << batches.value()
     << ",\"queries\":" << queries.value()
     << ",\"points_visited\":" << points_visited.value()
     << ",\"snapshots_published\":" << snapshots_published.value()
     << ",\"optimized_queries\":" << optimized_queries.value()
     << ",\"budget_capped\":" << budget_capped.value()
     << ",\"escalations\":" << escalations.value() << "}"
     << ",\"latency_us\":" << latency_us.to_json()
     << ",\"queue_us\":" << queue_us.to_json()
     << ",\"service_us\":" << service_us.to_json()
     << ",\"batch_size\":" << batch_size.to_json()
     << ",\"visited\":" << visited.to_json() << "}";
  return os.str();
}

void register_metrics(obs::MetricsRegistry& reg, const ServeMetrics& m) {
  reg.link_counter("wknng_serve_enqueued_total", m.enqueued,
                   "Requests accepted into the queue");
  reg.link_counter("wknng_serve_completed_total", m.completed,
                   "Futures fulfilled (any status)");
  reg.link_counter("wknng_serve_ok_total", m.ok,
                   "Requests completed with neighbors in time");
  reg.link_counter("wknng_serve_timed_out_total", m.timed_out,
                   "Typed timeout results (deadline passed)");
  reg.link_counter("wknng_serve_shed_total", m.shed,
                   "Requests rejected at admission");
  reg.link_counter("wknng_serve_rejected_overload_total", m.shed,
                   "OverloadShed rejections (admission: queue full/shutdown)");
  reg.link_counter("wknng_serve_rejected_deadline_total", m.rejected_deadline,
                   "DeadlineExceeded rejections (expired before dispatch)");
  reg.link_counter("wknng_serve_failed_total", m.failed,
                   "Batch executions failed with a typed error");
  reg.link_counter("wknng_serve_batches_total", m.batches,
                   "Micro-batches dispatched");
  reg.link_counter("wknng_serve_queries_total", m.queries,
                   "Queries executed by the kernel");
  reg.link_counter("wknng_serve_points_visited_total", m.points_visited,
                   "Distance evaluations across executed queries");
  reg.link_counter("wknng_serve_snapshots_published_total",
                   m.snapshots_published, "Graph snapshots published");
  reg.link_counter("wknng_serve_optimized_queries_total", m.optimized_queries,
                   "Queries answered through the optimized serving layout");
  reg.link_counter("wknng_serve_budget_capped_total", m.budget_capped,
                   "Search runs stopped by a visit budget before convergence");
  reg.link_counter("wknng_serve_escalations_total", m.escalations,
                   "Adaptive re-runs at a higher budget rung");
  reg.link_histogram("wknng_serve_latency_us", m.latency_us,
                     "Enqueue to future-fulfilled latency (us)");
  reg.link_histogram("wknng_serve_queue_us", m.queue_us,
                     "Enqueue to batch-dispatch latency (us)");
  reg.link_histogram("wknng_serve_service_us", m.service_us,
                     "Batch dispatch to batch-done latency (us)");
  reg.link_histogram("wknng_serve_batch_size", m.batch_size,
                     "Dispatched batch sizes");
  reg.link_histogram("wknng_serve_visited", m.visited,
                     "Per-request points visited");
}

}  // namespace wknng::serve
