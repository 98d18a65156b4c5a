#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"

namespace wknng::serve {

using Clock = std::chrono::steady_clock;

namespace {

double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

obs::RequestOutcome outcome_of(QueryStatus s) {
  switch (s) {
    case QueryStatus::kOk: return obs::RequestOutcome::kOk;
    case QueryStatus::kTimeout: return obs::RequestOutcome::kTimeout;
    case QueryStatus::kShed: return obs::RequestOutcome::kShed;
    case QueryStatus::kFailed: return obs::RequestOutcome::kFailed;
  }
  return obs::RequestOutcome::kFailed;
}

}  // namespace

ServeEngine::ServeEngine(ThreadPool& pool, ServeOptions options,
                         std::shared_ptr<const GraphSnapshot> initial)
    : pool_(&pool),
      options_(options),
      slot_(std::move(initial)),
      batcher_(options.max_batch, options.queue_capacity) {
  WKNNG_CHECK_MSG(slot_.current() != nullptr,
                  "ServeEngine needs an initial snapshot");
  WKNNG_CHECK_MSG(options_.workers > 0, "ServeEngine needs >= 1 worker");
  // Admission validation at construction: a misconfigured engine (k == 0,
  // entry_sample == 0) throws SearchParamError here, before any thread
  // starts, instead of failing every query.
  core::validate_search_params(options_.search);
  if (options_.adaptive_budget) {
    budget_ = std::make_unique<opt::BudgetController>(options_.budget);
  }
  if (options_.slo) {
    slo_ = std::make_unique<obs::SloTracker>(options_.slo_options);
  }
  if (options_.audit.fraction > 0.0) {
    auditor_ = std::make_unique<obs::RecallAuditor>(options_.audit);
    auditor_->attach_slo(slo_.get());
  }
  workers_.reserve(options_.workers);
  for (std::size_t w = 0; w < options_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ServeEngine::~ServeEngine() { stop(); }

std::future<QueryResult> ServeEngine::submit(std::vector<float> query,
                                             std::uint64_t deadline_us,
                                             std::uint64_t tag) {
  return submit_impl(std::move(query), deadline_us,
                     next_id_.fetch_add(1, std::memory_order_relaxed), tag);
}

std::future<QueryResult> ServeEngine::submit(std::vector<float> query,
                                             std::uint64_t deadline_us) {
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  return submit_impl(std::move(query), deadline_us, id, /*tag=*/id);
}

std::future<QueryResult> ServeEngine::submit_impl(std::vector<float> query,
                                                  std::uint64_t deadline_us,
                                                  std::uint64_t id,
                                                  std::uint64_t tag) {
  const auto snap = slot_.current();
  WKNNG_CHECK_MSG(query.size() == snap->base.cols(),
                  "query dim " << query.size() << " != base dim "
                               << snap->base.cols());

  Request r;
  r.id = id;
  r.tag = tag;
  r.query = std::move(query);
  r.enqueued = Clock::now();
  const std::uint64_t effective =
      deadline_us != 0 ? deadline_us : options_.default_deadline_us;
  if (effective != 0) {
    r.deadline = r.enqueued + std::chrono::microseconds(effective);
  }
  std::future<QueryResult> fut = r.promise.get_future();

  metrics_.enqueued.add();
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  if (stopped_.load(std::memory_order_acquire) || !batcher_.push(std::move(r))) {
    QueryResult qr;
    qr.status = QueryStatus::kShed;
    // A shed response still names the graph that would have answered it, so
    // flight records and audits join on snapshot_version for every outcome.
    qr.snapshot_version = snap->version;
    std::ostringstream os;
    os << "OverloadShed: request " << r.id << " rejected at admission ("
       << (stopped_.load(std::memory_order_acquire) ? "engine stopped"
                                                    : "queue full")
       << ")";
    qr.error = os.str();
    metrics_.shed.add();
    finish(r, std::move(qr), Clock::now());
  }
  return fut;
}

void ServeEngine::publish(std::shared_ptr<const GraphSnapshot> next) {
  WKNNG_CHECK_MSG(next != nullptr, "cannot publish a null snapshot");
  const std::uint64_t version = next->version;
  slot_.publish(std::move(next));
  metrics_.snapshots_published.add();
  if (slo_) slo_->note_publication(version);
}

void ServeEngine::drain() {
  {
    std::unique_lock<std::mutex> lock(drain_mutex_);
    drain_cv_.wait(lock, [&] {
      return in_flight_.load(std::memory_order_acquire) == 0;
    });
  }
  if (auditor_) auditor_->drain();
}

void ServeEngine::stop() {
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
  batcher_.close();  // executors drain the backlog, then exit
  for (auto& t : workers_) t.join();
  workers_.clear();
  if (auditor_) auditor_->drain();
}

void ServeEngine::worker_loop() {
  while (true) {
    std::vector<Request> batch = batcher_.next_batch();
    if (batch.empty()) return;  // closed and drained
    run_batch(std::move(batch));
  }
}

void ServeEngine::finish(Request& r, QueryResult qr, Clock::time_point now,
                         const BatchContext* ctx) {
  qr.request_id = r.id;
  qr.tag = r.tag;
  qr.total_us = us_between(r.enqueued, now);
  metrics_.latency_us.record(qr.total_us);
  metrics_.completed.add();
  if (slo_) {
    // Windows tick on the request *tag* (the loadgen's request counter), not
    // the submission id: tags are a pure function of the workload, so window
    // membership replays bit-identically under any thread interleaving.
    slo_->record_request(r.tag, qr.total_us, outcome_of(qr.status),
                         ctx != nullptr ? ctx->escalations : 0);
  }
  if (obs::FlightRecorder* fr = obs::active_flight_recorder()) {
    obs::FlightRecord rec;
    rec.request_id = r.id;
    rec.tag = r.tag;
    rec.snapshot_version = qr.snapshot_version;
    rec.span_id = ctx != nullptr ? ctx->span_id : 0;
    rec.visits = qr.points_visited;
    rec.budget_rung = ctx != nullptr ? ctx->budget_rung : 0;
    rec.escalations = ctx != nullptr ? ctx->escalations : 0;
    rec.batch_size = ctx != nullptr ? ctx->batch_size : 0;
    rec.entry_keep = static_cast<std::uint32_t>(options_.search.entry_keep);
    rec.status = static_cast<std::uint8_t>(qr.status);
    rec.queue_us = qr.queue_us;
    rec.total_us = qr.total_us;
    fr->record(rec);
  }
  r.promise.set_value(std::move(qr));
  if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(drain_mutex_);
    drain_cv_.notify_all();
  }
}

void ServeEngine::maybe_audit(const Request& r, const QueryResult& qr,
                              const std::shared_ptr<const GraphSnapshot>& snap) {
  if (!auditor_ || qr.neighbors.empty() || !auditor_->should_sample(r.tag)) {
    return;
  }
  std::vector<std::uint32_t> served;
  served.reserve(qr.neighbors.size());
  for (const Neighbor& nb : qr.neighbors) served.push_back(nb.id);
  obs::AuditTarget target;
  target.pin = snap;  // ground truth sees exactly the graph the query saw
  target.base = &snap->base;
  target.exclude = snap->exclusion_mask();
  if (snap->external_ids != nullptr) {
    target.external_ids = {snap->external_ids->data(),
                           snap->external_ids->size()};
  }
  target.version = snap->version;
  auditor_->submit(r.tag, r.query, std::move(served), std::move(target));
}

core::BatchSearchResult ServeEngine::run_search(
    const core::SearchTarget& target, const FloatMatrix& queries,
    std::span<const std::uint64_t> tags,
    std::vector<std::uint32_t>* escalations,
    std::vector<std::uint64_t>* budgets) {
  core::SearchParams p = options_.search;
  if (budget_ != nullptr) p.visit_budget = budget_->predict();
  if (escalations != nullptr) escalations->assign(queries.rows(), 0);
  if (budgets != nullptr) budgets->assign(queries.rows(), p.visit_budget);

  core::BatchSearchResult result = core::search_batch(
      *pool_, target, queries, tags, p, &scratch_, nullptr);

  if (budget_ != nullptr) {
    // Bucketing escalation: re-run only the queries the predicted rung
    // capped, at successively higher rungs. Past the top rung the budget is
    // 0 (unlimited), so a learned budget can delay a hard query but never
    // truncate its answer.
    while (p.visit_budget != 0) {
      std::vector<std::size_t> retry;
      for (std::size_t i = 0; i < result.capped.size(); ++i) {
        if (result.capped[i] != 0) retry.push_back(i);
      }
      if (retry.empty()) break;
      metrics_.budget_capped.add(retry.size());
      p.visit_budget = budget_->escalate(p.visit_budget);
      FloatMatrix sub(retry.size(), queries.cols());
      std::vector<std::uint64_t> sub_tags(retry.size());
      for (std::size_t j = 0; j < retry.size(); ++j) {
        const auto qrow = queries.row(retry[j]);
        std::copy(qrow.begin(), qrow.end(), sub.row(j).begin());
        sub_tags[j] = tags.empty() ? retry[j] : tags[retry[j]];
        if (escalations != nullptr) ++(*escalations)[retry[j]];
        if (budgets != nullptr) (*budgets)[retry[j]] = p.visit_budget;
      }
      core::BatchSearchResult esc = core::search_batch(
          *pool_, target, sub, sub_tags, p, &scratch_, nullptr);
      metrics_.escalations.add(retry.size());
      for (std::size_t j = 0; j < retry.size(); ++j) {
        const std::size_t i = retry[j];
        const auto from = esc.results.row(j);
        const auto to = result.results.row(i);
        std::copy(from.begin(), from.end(), to.begin());
        // Replace, don't sum: the learner buckets "what a completed search
        // costs", and only the finishing run answers that.
        result.visits[i] = esc.visits[j];
        result.capped[i] = esc.capped[j];
      }
    }
    for (std::size_t i = 0; i < result.visits.size(); ++i) {
      if (result.capped[i] == 0) budget_->observe(result.visits[i]);
    }
  } else if (p.visit_budget != 0) {
    std::uint64_t capped = 0;
    for (const std::uint8_t c : result.capped) capped += c != 0 ? 1 : 0;
    metrics_.budget_capped.add(capped);
  }
  return result;
}

void ServeEngine::run_batch(std::vector<Request> batch) {
  const auto dispatched = Clock::now();
  metrics_.batches.add();
  metrics_.batch_size.record(static_cast<double>(batch.size()));

  // Batch ordinal and the span id hashed from it are computed for every
  // batch (two cheap pure operations): the flight recorder cross-links its
  // records to this id whether or not a tracer is installed, so a slow-log
  // line captured today joins a trace captured tomorrow.
  const std::uint64_t batch_idx =
      batch_index_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t span_id =
      obs::Tracer::span_id(batch_idx, 0, 0, obs::SpanSalt::kServeBatch);

  // The snapshot is pinned before triage so even requests rejected at the
  // deadline gate carry the version that would have answered them.
  const std::shared_ptr<const GraphSnapshot> snap = slot_.current();

  BatchContext ctx;
  ctx.span_id = span_id;
  ctx.batch_size = static_cast<std::uint32_t>(batch.size());

  // Serve-batch span: id is counter-hashed from a monotone batch index, so
  // the id sequence is deterministic even though batch *composition* depends
  // on arrival timing. The span covers triage + kernel + fan-out.
  std::optional<obs::Span> span;
  obs::Tracer* tr = options_.obs.trace ? obs::active_tracer() : nullptr;
  if (tr != nullptr) {
    span.emplace(tr, "serve_batch", "serve", span_id, obs::kTrackServe);
    span->arg_num("size", static_cast<std::uint64_t>(batch.size()));
  }

  // Deadline triage: expired requests get typed timeout results and are
  // never executed — the engine sheds their work, not just their response.
  std::vector<Request> live;
  live.reserve(batch.size());
  for (Request& r : batch) {
    if (dispatched > r.deadline) {
      QueryResult qr;
      qr.status = QueryStatus::kTimeout;
      qr.snapshot_version = snap->version;
      std::ostringstream os;
      os << "DeadlineExceeded: request " << r.id
         << " expired before dispatch (waited "
         << us_between(r.enqueued, dispatched) << " us)";
      qr.error = os.str();
      qr.queue_us = us_between(r.enqueued, dispatched);
      metrics_.queue_us.record(qr.queue_us);
      metrics_.timed_out.add();
      metrics_.rejected_deadline.add();
      finish(r, std::move(qr), dispatched, &ctx);
    } else {
      live.push_back(std::move(r));
    }
  }
  if (span) span->arg_num("live", static_cast<std::uint64_t>(live.size()));
  if (slo_) slo_->record_batch(batch_idx, live.size(), options_.max_batch);
  if (live.empty()) return;

  if (span) {
    span->arg_num("snapshot_version",
                  static_cast<std::uint64_t>(snap->version));
  }
  FloatMatrix queries(live.size(), snap->base.cols());
  std::vector<std::uint64_t> tags(live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    std::copy(live[i].query.begin(), live[i].query.end(),
              queries.row(i).begin());
    tags[i] = live[i].tag;
  }

  // The snapshot's layout when it carries one, its raw graph otherwise, with
  // its norm cache and sq8 tier. The target aliases `snap`, which this batch
  // keeps pinned.
  const core::SearchTarget target = snap->search_target();
  const bool optimized = snap->serving_layout() != nullptr;
  if (span && optimized) span->arg_num("optimized", std::uint64_t{1});

  ctx.batch_size = static_cast<std::uint32_t>(live.size());
  core::BatchSearchResult result;
  std::vector<std::uint32_t> escalations;
  std::vector<std::uint64_t> budgets;
  try {
    result = run_search(target, queries, tags, &escalations, &budgets);
  } catch (const std::exception& e) {
    // A failed batch (e.g. an injected LaunchAllocError) answers every
    // request with a typed failure; the engine itself stays live.
    const auto now = Clock::now();
    const double service_us = us_between(dispatched, now);
    for (Request& r : live) {
      QueryResult qr;
      qr.status = QueryStatus::kFailed;
      qr.snapshot_version = snap->version;
      qr.queue_us = us_between(r.enqueued, dispatched);
      metrics_.queue_us.record(qr.queue_us);
      metrics_.service_us.record(service_us);
      qr.error = e.what();
      metrics_.failed.add();
      finish(r, std::move(qr), now, &ctx);
    }
    return;
  }

  const auto done = Clock::now();
  const double service_us = us_between(dispatched, done);
  metrics_.queries.add(live.size());
  if (optimized) metrics_.optimized_queries.add(live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    Request& r = live[i];
    QueryResult qr;
    qr.snapshot_version = snap->version;
    qr.points_visited = result.visits[i];
    qr.queue_us = us_between(r.enqueued, dispatched);
    metrics_.queue_us.record(qr.queue_us);
    metrics_.service_us.record(service_us);
    metrics_.points_visited.add(result.visits[i]);
    metrics_.visited.record(static_cast<double>(result.visits[i]));
    const auto row = result.results.row(i);
    const std::size_t valid = result.results.row_size(i);
    qr.neighbors.assign(row.begin(), row.begin() + valid);
    if (snap->external_ids != nullptr) {
      // Dynamic snapshot: answers carry stable external ids, so a client's
      // view of a point never changes when compaction rewrites rows.
      for (Neighbor& nb : qr.neighbors) nb.id = snap->external_id(nb.id);
    }
    if (done > r.deadline) {
      qr.status = QueryStatus::kTimeout;  // late result: neighbors included
      std::ostringstream os;
      os << "DeadlineExceeded: request " << r.id << " completed "
         << us_between(r.deadline, done) << " us past its deadline";
      qr.error = os.str();
      metrics_.timed_out.add();
    } else {
      metrics_.ok.add();
    }
    BatchContext qctx = ctx;
    if (i < escalations.size()) qctx.escalations = escalations[i];
    if (budget_ != nullptr && i < budgets.size()) {
      qctx.budget_rung = budget_->rung_of(budgets[i]);
    }
    maybe_audit(r, qr, snap);
    finish(r, std::move(qr), done, &qctx);
  }
}

}  // namespace wknng::serve
