// End-to-end quality plane through the serve engine: deterministic replay of
// the audit/alert stream, snapshot versions on rejection paths, and online
// recall estimates agreeing with the offline exact computation — static and
// under fig13-style dynamic churn.
#include "serve/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/builder.hpp"
#include "data/synthetic.hpp"
#include "dynamic/dynamic_knng.hpp"
#include "obs/audit.hpp"
#include "obs/slo.hpp"
#include "support/temp_dir.hpp"

namespace wknng::serve {
namespace {

struct Fixture {
  ThreadPool pool{4};
  FloatMatrix base;
  FloatMatrix queries;
  KnnGraph graph;

  explicit Fixture(std::size_t n = 600, std::size_t dim = 8,
                   std::size_t nq = 24) {
    base = data::make_clusters(n, dim, 8, 0.1f, 5);
    queries.resize(nq, dim);
    Rng rng(23);
    for (std::size_t qi = 0; qi < nq; ++qi) {
      const auto src = base.row(rng.next_below(n));
      auto dst = queries.row(qi);
      for (std::size_t d = 0; d < dim; ++d) {
        dst[d] = src[d] + 0.02f * rng.next_gaussian();
      }
    }
    core::BuildParams bp;
    bp.k = 10;
    bp.num_trees = 4;
    bp.refine_iters = 1;
    graph = core::build_knng(pool, base, bp).graph;
  }

  std::vector<float> query_vec(std::size_t qi) const {
    const auto row = queries.row(qi % queries.rows());
    return {row.begin(), row.end()};
  }

  ServeOptions options() const {
    ServeOptions so;
    so.max_batch = 8;
    so.workers = 2;
    so.search.k = 5;
    return so;
  }
};

/// The exact target construction the engine's maybe_audit performs, so tests
/// can rerun the identical offline evaluation against a pinned snapshot.
obs::AuditTarget target_from(const std::shared_ptr<const GraphSnapshot>& snap) {
  obs::AuditTarget t;
  t.pin = snap;
  t.base = &snap->base;
  t.exclude = snap->exclusion_mask();
  if (snap->external_ids != nullptr) {
    t.external_ids = {snap->external_ids->data(), snap->external_ids->size()};
  }
  t.version = snap->version;
  return t;
}

std::vector<std::uint32_t> served_ids(const QueryResult& qr) {
  std::vector<std::uint32_t> ids;
  ids.reserve(qr.neighbors.size());
  for (const Neighbor& nb : qr.neighbors) ids.push_back(nb.id);
  return ids;
}

/// Everything the quality plane decided during a run, in comparable form.
/// Latency numbers (window sums, burn values over a disabled signal) are
/// wall-clock and deliberately excluded.
struct PlaneTrace {
  std::vector<obs::AuditSample> samples;  // sorted by request index
  obs::AuditEstimate window;
  obs::AuditEstimate lifetime;
  double burn_fast = 0.0;
  double burn_slow = 0.0;
  std::vector<obs::SloAlert> alerts;
  std::vector<obs::SloAlert> callback_alerts;
  obs::WindowStats occupancy;
  std::uint64_t requests_seen = 0;
  bool recall_alert_active = false;
};

void expect_identical(const PlaneTrace& a, const PlaneTrace& b) {
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].index, b.samples[i].index);
    EXPECT_EQ(a.samples[i].version, b.samples[i].version);
    EXPECT_EQ(a.samples[i].recall, b.samples[i].recall);  // bit-identical
  }
  EXPECT_EQ(a.window.audited, b.window.audited);
  EXPECT_EQ(a.window.recall, b.window.recall);
  EXPECT_EQ(a.window.ci_halfwidth, b.window.ci_halfwidth);
  EXPECT_EQ(a.lifetime.recall, b.lifetime.recall);
  EXPECT_EQ(a.burn_fast, b.burn_fast);
  EXPECT_EQ(a.burn_slow, b.burn_slow);
  EXPECT_EQ(a.requests_seen, b.requests_seen);
  EXPECT_EQ(a.recall_alert_active, b.recall_alert_active);
  EXPECT_EQ(a.occupancy.count, b.occupancy.count);
  EXPECT_EQ(a.occupancy.sum, b.occupancy.sum);
  ASSERT_EQ(a.alerts.size(), b.alerts.size());
  for (std::size_t i = 0; i < a.alerts.size(); ++i) {
    EXPECT_EQ(a.alerts[i].signal, b.alerts[i].signal);
    EXPECT_EQ(a.alerts[i].firing, b.alerts[i].firing);
    EXPECT_EQ(a.alerts[i].tick, b.alerts[i].tick);
    EXPECT_EQ(a.alerts[i].sequence, b.alerts[i].sequence);
    EXPECT_EQ(a.alerts[i].burn_fast, b.alerts[i].burn_fast);
    EXPECT_EQ(a.alerts[i].burn_slow, b.alerts[i].burn_slow);
  }
  ASSERT_EQ(a.callback_alerts.size(), a.alerts.size());
  ASSERT_EQ(b.callback_alerts.size(), b.alerts.size());
}

// Two identical serve runs must replay the whole quality plane bit-identically:
// the audited sample set, each sample's recall, the rolling estimate, the burn
// rates, and the full alert edge sequence. The latency objective stays
// disabled (p99 target 0) so no wall-clock measurement enters any decision;
// requests are submitted one at a time so the tracker sees the same event
// order both times.
TEST(SloServe, ReplayProducesBitIdenticalQualityPlane) {
  Fixture f;
  const auto run = [&]() {
    ServeOptions so = f.options();
    so.workers = 1;
    so.slo = true;
    so.slo_options.objective.p99_latency_us = 0.0;  // latency signal off
    // An unreachable recall target makes every audited sample a bad event:
    // the alert edge positions become a pure function of the sample set.
    so.slo_options.objective.min_recall = 2.0;
    so.slo_options.objective.error_budget = 0.5;
    so.slo_options.recall_rule.fast = obs::WindowConfig{2, 8};
    so.slo_options.recall_rule.slow = obs::WindowConfig{4, 16};
    so.slo_options.recall_rule.threshold = 2.0;
    so.slo_options.recall_rule.min_events = 6;
    so.audit.fraction = 0.6;
    so.audit.seed = 7;
    so.audit.k = 5;

    ServeEngine engine(f.pool, so, make_snapshot(1, f.base, f.graph));
    PlaneTrace trace;
    std::mutex cb_mu;
    engine.slo_tracker()->set_alert_callback([&](const obs::SloAlert& a) {
      std::lock_guard<std::mutex> lock(cb_mu);
      trace.callback_alerts.push_back(a);
    });
    for (std::uint64_t t = 0; t < 64; ++t) {
      const QueryResult qr = engine.submit(f.query_vec(t), 0, t).get();
      EXPECT_EQ(qr.status, QueryStatus::kOk) << qr.error;
      engine.drain();  // audits for tag t complete before tag t+1 exists
    }
    engine.stop();

    const obs::SloTracker& slo = *engine.slo_tracker();
    const obs::RecallAuditor& audit = *engine.auditor();
    EXPECT_EQ(audit.dropped(), 0u);
    trace.samples = audit.samples();
    std::sort(trace.samples.begin(), trace.samples.end(),
              [](const auto& x, const auto& y) { return x.index < y.index; });
    trace.window = audit.estimate();
    trace.lifetime = audit.lifetime_estimate();
    trace.burn_fast = slo.recall_burn(true);
    trace.burn_slow = slo.recall_burn(false);
    trace.alerts = slo.alert_log();
    trace.occupancy = slo.occupancy_window();
    trace.requests_seen = slo.requests_seen();
    trace.recall_alert_active = slo.alert_active(obs::SloSignal::kRecall);
    return trace;
  };

  const PlaneTrace a = run();
  const PlaneTrace b = run();

  // The run did what the scenario intends: a fractional, non-trivial sample
  // set and a recall burn alert that actually fired.
  EXPECT_GT(a.samples.size(), 16u);
  EXPECT_LT(a.samples.size(), 64u);
  ASSERT_FALSE(a.alerts.empty());
  EXPECT_EQ(a.alerts.front().signal, obs::SloSignal::kRecall);
  EXPECT_TRUE(a.alerts.front().firing);
  EXPECT_TRUE(a.recall_alert_active);

  expect_identical(a, b);
}

// Satellite: rejection paths carry the snapshot version the request would
// have been served from — dashboards can attribute shed/timeout spikes to a
// publication without a served result to join through.
TEST(SloServe, ShedAndDeadlineResponsesCarrySnapshotVersion) {
  Fixture f;
  {
    // Deadline path: dispatch is held until the 1us deadlines have passed.
    ServeOptions so = f.options();
    so.workers = 1;
    so.max_batch = 1024;
    ServeEngine engine(f.pool, so, make_snapshot(3, f.base, f.graph));
    std::vector<std::future<QueryResult>> futs;
    {
      const MicroBatcher::Hold hold = engine.hold_dispatch();
      for (std::size_t qi = 0; qi < 3; ++qi) {
        futs.push_back(engine.submit(f.query_vec(qi), /*deadline_us=*/1, qi));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (auto& fut : futs) {
      const QueryResult qr = fut.get();
      EXPECT_EQ(qr.status, QueryStatus::kTimeout);
      EXPECT_EQ(qr.snapshot_version, 3u);
    }
  }
  {
    // Overload path: capacity 2, six submits while dispatch is held, four
    // typed sheds.
    ServeOptions so = f.options();
    so.workers = 1;
    so.max_batch = 1024;
    so.queue_capacity = 2;
    ServeEngine engine(f.pool, so, make_snapshot(9, f.base, f.graph));
    std::vector<std::future<QueryResult>> futs;
    {
      const MicroBatcher::Hold hold = engine.hold_dispatch();
      for (std::size_t qi = 0; qi < 6; ++qi) {
        futs.push_back(engine.submit(f.query_vec(qi), 0, qi));
      }
    }
    std::size_t shed = 0;
    for (auto& fut : futs) {
      const QueryResult qr = fut.get();
      EXPECT_EQ(qr.snapshot_version, 9u) << "status " << int(qr.status);
      if (qr.status == QueryStatus::kShed) ++shed;
    }
    EXPECT_EQ(shed, 4u);
    // Stopped-engine shed keeps the attribution too.
    engine.stop();
    const QueryResult late = engine.submit(f.query_vec(0), 0, 99).get();
    EXPECT_EQ(late.status, QueryStatus::kShed);
    EXPECT_EQ(late.snapshot_version, 9u);
  }
}

// The online estimate is not an approximation of the offline evaluation — it
// IS the offline evaluation, sampled. Every audited sample must equal
// exact_recall over the same snapshot/query/served-ids, and the published
// estimate must be the plain mean of those samples.
TEST(SloServe, OnlineEstimateMatchesOfflineExactOnStaticGraph) {
  Fixture f;
  ServeOptions so = f.options();
  so.slo = true;
  so.slo_options.objective.p99_latency_us = 0.0;
  so.audit.fraction = 1.0;
  so.audit.k = 5;
  so.audit.queue_capacity = 4096;
  const auto snap = make_snapshot(1, f.base, f.graph);
  ServeEngine engine(f.pool, so, snap);

  constexpr std::uint64_t kN = 48;
  std::vector<std::future<QueryResult>> futs;
  for (std::uint64_t t = 0; t < kN; ++t) {
    futs.push_back(engine.submit(f.query_vec(t), 0, t));
  }
  std::vector<QueryResult> results;
  results.reserve(kN);
  for (auto& fut : futs) results.push_back(fut.get());
  engine.drain();  // auditor queue included
  engine.stop();

  const obs::RecallAuditor& audit = *engine.auditor();
  EXPECT_EQ(audit.dropped(), 0u);
  const std::vector<obs::AuditSample> samples = audit.samples();
  ASSERT_EQ(samples.size(), kN);

  double offline_sum = 0.0;
  for (const obs::AuditSample& s : samples) {
    ASSERT_LT(s.index, kN);
    const QueryResult& qr = results[s.index];
    ASSERT_EQ(qr.status, QueryStatus::kOk);
    EXPECT_EQ(s.version, qr.snapshot_version);
    const double offline = obs::RecallAuditor::exact_recall(
        target_from(snap), f.query_vec(s.index), served_ids(qr), so.audit.k);
    EXPECT_DOUBLE_EQ(s.recall, offline) << "tag " << s.index;
    offline_sum += offline;
  }
  const double offline_mean = offline_sum / static_cast<double>(kN);
  EXPECT_GT(offline_mean, 0.5);  // the graph actually answers these queries
  EXPECT_NEAR(audit.lifetime_estimate().recall, offline_mean, 1e-12);
  // All kN ticks fit inside the default rolling window, so the windowed
  // estimate is the same mean (and trivially within its own CI).
  const obs::AuditEstimate est = audit.estimate();
  EXPECT_EQ(est.audited, kN);
  EXPECT_NEAR(est.recall, offline_mean, 1e-12);
}

// Fig. 13 shape: ~20% of operations mutate through DynamicKnng while the
// engine serves and audits. Each audit must be evaluated against the snapshot
// its query was actually served from (joined by version), never the current
// one — replaying the offline evaluation against the recorded per-version
// snapshots must reproduce every sample bit-for-bit.
TEST(SloServe, ChurnAuditsEvaluateAgainstPinnedSnapshot) {
  Fixture f;
  const auto dir = wknng::testing::unique_test_dir("slo_churn");
  std::map<std::uint64_t, std::shared_ptr<const GraphSnapshot>> versions;
  std::mutex versions_mu;
  std::atomic<ServeEngine*> engine_ptr{nullptr};

  dynamic::DynamicParams dp;
  dp.auto_maintain = false;
  dp.on_publish = [&](std::shared_ptr<const GraphSnapshot> snap) {
    {
      std::lock_guard<std::mutex> lock(versions_mu);
      versions[snap->version] = snap;
    }
    if (auto* e = engine_ptr.load()) e->publish(std::move(snap));
  };
  core::BuildParams bp;
  bp.k = 10;
  bp.num_trees = 4;
  bp.refine_iters = 1;
  dynamic::DynamicKnng dyn(f.pool, bp, f.base, dir.string(), dp);
  versions[dyn.snapshot()->version] = dyn.snapshot();

  ServeOptions so = f.options();
  so.slo = true;
  so.slo_options.objective.p99_latency_us = 0.0;
  so.audit.fraction = 1.0;
  so.audit.k = 5;
  so.audit.queue_capacity = 4096;
  ServeEngine engine(f.pool, so, dyn.snapshot());
  engine_ptr.store(&engine);

  // 8 rounds x (4 reads + 1 mutation) = 20% write mix.
  std::vector<std::future<QueryResult>> futs;
  std::uint32_t victim = 0;
  for (int round = 0; round < 8; ++round) {
    for (std::size_t qi = 0; qi < 4; ++qi) {
      futs.push_back(engine.submit(f.query_vec(futs.size()), 0, futs.size()));
    }
    if (round % 2 == 0) {
      FloatMatrix one(1, f.base.cols());
      const auto src = f.base.row(static_cast<std::size_t>(round));
      std::copy(src.begin(), src.end(), one.row(0).begin());
      dyn.insert(one);
    } else {
      dyn.erase(std::vector<std::uint32_t>{victim, victim + 1});
      victim += 2;
    }
  }
  std::vector<QueryResult> results;
  results.reserve(futs.size());
  for (auto& fut : futs) results.push_back(fut.get());
  engine.drain();
  engine.stop();

  const obs::RecallAuditor& audit = *engine.auditor();
  EXPECT_EQ(audit.dropped(), 0u);
  const std::vector<obs::AuditSample> samples = audit.samples();
  ASSERT_EQ(samples.size(), results.size());

  double sum = 0.0;
  for (const obs::AuditSample& s : samples) {
    const QueryResult& qr = results[s.index];
    ASSERT_EQ(qr.status, QueryStatus::kOk) << qr.error;
    // The audit ran on the snapshot the query pinned, whichever publication
    // that was — the versions must agree and the recall must replay against
    // that version's base/tombstones/id-map.
    EXPECT_EQ(s.version, qr.snapshot_version);
    const auto it = versions.find(s.version);
    ASSERT_NE(it, versions.end()) << "phantom version " << s.version;
    const double offline = obs::RecallAuditor::exact_recall(
        target_from(it->second), f.query_vec(s.index), served_ids(qr),
        so.audit.k);
    EXPECT_DOUBLE_EQ(s.recall, offline) << "tag " << s.index;
    sum += offline;
  }
  EXPECT_NEAR(audit.lifetime_estimate().recall,
              sum / static_cast<double>(samples.size()), 1e-12);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace wknng::serve
