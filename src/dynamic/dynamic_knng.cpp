#include "dynamic/dynamic_knng.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "common/error.hpp"
#include "common/topk.hpp"
#include "core/builder.hpp"
#include "core/refine.hpp"
#include "data/graph_io.hpp"
#include "obs/trace.hpp"
#include "opt/optimize.hpp"
#include "simt/launch.hpp"
#include "simt/packed.hpp"
#include "simt/visited.hpp"
#include "simt/warp_distance.hpp"

namespace wknng::dynamic {

using simt::kWarpSize;
using simt::Lanes;
using simt::Packed;
using simt::Warp;

namespace {

/// Appends rows of `extra` to `base` (reallocating copy — rows are immutable
/// once stored; this runs between kernel launches only).
FloatMatrix append_rows(const FloatMatrix& base, const FloatMatrix& extra) {
  WKNNG_CHECK(base.cols() == extra.cols());
  FloatMatrix out(base.rows() + extra.rows(), base.cols());
  std::memcpy(out.data(), base.data(), base.size() * sizeof(float));
  std::memcpy(out.data() + base.size(), extra.data(),
              extra.size() * sizeof(float));
  return out;
}

/// Typed admission of new rows (a fresh index's base or an insert batch):
/// a non-finite row is rejected, never quarantined — it would sit live in
/// the index with an empty graph row.
void reject_nonfinite(ThreadPool& pool, const FloatMatrix& rows,
                      const char* what) {
  const std::vector<std::uint32_t> bad = core::scan_nonfinite_rows(pool, rows);
  if (bad.empty()) return;
  std::ostringstream os;
  os << what << ": non-finite values in row " << bad.front() << " ("
     << bad.size() << " bad row" << (bad.size() == 1 ? "" : "s")
     << "); the dynamic index rejects rather than quarantines";
  throw MutationError(os.str());
}

/// The connect half of search-then-connect insertion: adopts `found` (the
/// descent's k best, sorted) as `id`'s forward neighbors and pushes the
/// reverse edge into each neighbor's set through the strategy's concurrent
/// machinery.
void connect_point(Warp& w, core::KnnSetArray& sets, core::Strategy strategy,
                   std::uint32_t id, std::span<const Neighbor> found) {
  for (const Neighbor& nb : found) {
    sets.insert(w, strategy, id, Packed::make(nb.dist, nb.id));
    sets.insert(w, strategy, nb.id, Packed::make(nb.dist, id));
  }
}

const char* op_name(data::WalRecord::Type t) {
  switch (t) {
    case data::WalRecord::Type::kInsert: return "dynamic_insert";
    case data::WalRecord::Type::kDelete: return "dynamic_delete";
    case data::WalRecord::Type::kRepair: return "dynamic_repair";
    case data::WalRecord::Type::kCompact: return "dynamic_compact";
  }
  return "dynamic_op";
}

/// RAII span of one logged state transition: id is counter-hashed from the
/// version the transition produces, so two runs of the same mutation history
/// trace the identical id structure.
obs::Span op_span(data::WalRecord::Type t, std::uint64_t version) {
  obs::Tracer* tracer = obs::active_tracer();
  return obs::Span(tracer, op_name(t), "dynamic",
                   obs::Tracer::span_id(version, 0, 0,
                                        obs::SpanSalt::kDynamicOp),
                   obs::kTrackDynamic);
}

}  // namespace

DynamicKnng::DynamicKnng(ThreadPool& pool, const core::BuildParams& params,
                         FloatMatrix base_points, std::string dir,
                         DynamicParams dyn)
    : pool_(&pool),
      params_(params),
      dyn_(std::move(dyn)),
      dir_(std::move(dir)),
      dim_(base_points.cols()),
      points_(std::move(base_points)),
      sets_(points_.rows(), params.k) {
  WKNNG_CHECK_MSG(params_.compression == core::Compression::kNone,
                  "dynamic index does not support the compressed tier");
  WKNNG_CHECK_MSG(points_.rows() > params_.k,
                  "need more base points than k");
  reject_nonfinite(*pool_, points_, "base");
  std::filesystem::create_directories(dir_);
  signature_ = core::build_signature(params_, points_.rows(), dim_);

  // Base build: the w-KNNG pipeline, run in our own set array.
  core::BuildResult built =
      core::KnngBuilder(*pool_, params_).build(points_, &sets_);
  acc_.flush(built.stats);
  WKNNG_CHECK_MSG(built.races_detected == 0,
                  "race detector flagged " << built.races_detected
                      << " conflicts in the base build");

  // Anchor: the WKNNGCP1 image replay restarts from.
  data::BuildCheckpoint ck;
  ck.signature = signature_;
  ck.n = points_.rows();
  ck.k = params_.k;
  ck.rounds_done = static_cast<std::uint32_t>(built.health.rounds_completed);
  ck.effective_strategy = static_cast<std::uint32_t>(built.effective_strategy);
  ck.sets.assign(sets_.words().begin(), sets_.words().end());
  data::write_checkpoint(base_checkpoint_path(dir_), ck);

  const std::size_t n0 = points_.rows();
  external_.resize(n0);
  intern_.reserve(n0);
  for (std::size_t p = 0; p < n0; ++p) {
    external_[p] = static_cast<std::uint32_t>(p);
    intern_.emplace(static_cast<std::uint32_t>(p),
                    static_cast<std::uint32_t>(p));
  }
  next_external_ = static_cast<std::uint32_t>(n0);
  tombstone_.assign(n0, 0);
  dirty_mark_.assign(n0, 0);
  version_ = 1;
  graph_ = std::move(built.graph);

  wal_ = std::make_unique<data::WalWriter>(dir_, signature_, 1, version_,
                                           dyn_.wal_segment_bytes);
  std::lock_guard<std::mutex> lock(mu_);
  publish_locked();
}

DynamicKnng::DynamicKnng(Recover, ThreadPool& pool,
                         const core::BuildParams& params,
                         FloatMatrix base_points, std::string dir,
                         DynamicParams dyn)
    : pool_(&pool),
      params_(params),
      dyn_(std::move(dyn)),
      dir_(std::move(dir)),
      dim_(base_points.cols()),
      points_(std::move(base_points)),
      sets_(points_.rows(), params.k) {
  WKNNG_CHECK_MSG(params_.compression == core::Compression::kNone,
                  "dynamic index does not support the compressed tier");
  signature_ = core::build_signature(params_, points_.rows(), dim_);
  init_base_from_checkpoint(points_);

  const std::size_t n0 = points_.rows();
  external_.resize(n0);
  intern_.reserve(n0);
  for (std::size_t p = 0; p < n0; ++p) {
    external_[p] = static_cast<std::uint32_t>(p);
    intern_.emplace(static_cast<std::uint32_t>(p),
                    static_cast<std::uint32_t>(p));
  }
  next_external_ = static_cast<std::uint32_t>(n0);
  tombstone_.assign(n0, 0);
  dirty_mark_.assign(n0, 0);
  version_ = 1;
  graph_ = sets_.extract(*pool_);

  data::WalReplay replay;
  {
    obs::Span span(obs::active_tracer(), "dynamic_replay", "dynamic",
                   obs::Tracer::span_id(0, 0, 0, obs::SpanSalt::kDynamicOp),
                   obs::kTrackDynamic);
    replay = data::replay_wal(dir_, signature_, version_,
                              [&](const data::WalRecord& rec) {
                                apply_record(rec);
                              });
    span.arg_num("records", static_cast<std::uint64_t>(replay.records));
    span.arg_num("last_version", replay.last_version);
  }
  WKNNG_CHECK_MSG(replay.records == 0 || replay.last_version == version_,
                  "replay ended at version " << replay.last_version
                                             << " but index is at " << version_);
  replay_torn_tail_ = replay.torn_tail;
  metrics_.replayed_records.add(replay.records);

  // A restarted writer always opens a fresh segment: it must never append
  // after a (possibly torn) tail it did not write.
  wal_ = std::make_unique<data::WalWriter>(dir_, signature_, replay.next_seq,
                                           version_, dyn_.wal_segment_bytes);
  std::lock_guard<std::mutex> lock(mu_);
  publish_locked();
}

void DynamicKnng::init_base_from_checkpoint(const FloatMatrix& base_points) {
  const data::BuildCheckpoint ck =
      data::read_checkpoint(base_checkpoint_path(dir_));
  if (ck.signature != signature_) {
    std::ostringstream os;
    os << "base checkpoint signature " << ck.signature
       << " does not match build signature " << signature_
       << " (different parameters or base data)";
    throw CheckpointMismatchError(os.str());
  }
  if (ck.n != base_points.rows() || ck.k != params_.k) {
    std::ostringstream os;
    os << "base checkpoint shape (n=" << ck.n << ", k=" << ck.k
       << ") does not match (n=" << base_points.rows() << ", k=" << params_.k
       << ")";
    throw CheckpointMismatchError(os.str());
  }
  sets_.restore(ck.sets);
}

// --- Mutations --------------------------------------------------------------

std::vector<std::uint32_t> DynamicKnng::insert(const FloatMatrix& rows) {
  // Typed admission, all before the lock and the log: a rejected batch never
  // mutates the index and never produces a WAL record.
  if (rows.rows() == 0) {
    throw MutationError("insert: empty batch");
  }
  if (rows.cols() != dim_) {
    std::ostringstream os;
    os << "insert: batch dim " << rows.cols() << " != index dim " << dim_;
    throw MutationError(os.str());
  }
  reject_nonfinite(*pool_, rows, "insert");

  std::lock_guard<std::mutex> lock(mu_);
  obs::Span span = op_span(data::WalRecord::Type::kInsert, version_ + 1);

  std::vector<std::uint32_t> ids(rows.rows());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = next_external_ + static_cast<std::uint32_t>(i);
  }

  data::WalRecord rec;
  rec.type = data::WalRecord::Type::kInsert;
  rec.version = version_ + 1;
  rec.external_ids = ids;
  rec.rows = rows;
  const std::uint64_t before = wal_->bytes_appended();
  wal_->append(rec);
  metrics_.wal_records.add(1);
  metrics_.wal_bytes.add(wal_->bytes_appended() - before);

  apply_insert(rows, ids, /*replaying=*/false);
  publish_locked();
  span.arg_num("rows", static_cast<std::uint64_t>(rows.rows()));
  span.finish();
  if (dyn_.auto_maintain) maintain_locked();
  return ids;
}

std::size_t DynamicKnng::erase(std::span<const std::uint32_t> external_ids) {
  std::lock_guard<std::mutex> lock(mu_);

  // Admission: resolve to live internal rows, dropping unknowns, repeats,
  // and already-tombstoned ids — the log only ever records effective deletes.
  std::vector<std::uint32_t> accepted;
  accepted.reserve(external_ids.size());
  std::unordered_set<std::uint32_t> seen;
  for (const std::uint32_t ext : external_ids) {
    const auto it = intern_.find(ext);
    if (it == intern_.end()) continue;
    if (tombstone_[it->second]) continue;
    if (!seen.insert(ext).second) continue;
    accepted.push_back(ext);
  }
  if (accepted.empty()) return 0;

  obs::Span span = op_span(data::WalRecord::Type::kDelete, version_ + 1);
  data::WalRecord rec;
  rec.type = data::WalRecord::Type::kDelete;
  rec.version = version_ + 1;
  rec.external_ids = accepted;
  const std::uint64_t before = wal_->bytes_appended();
  wal_->append(rec);
  metrics_.wal_records.add(1);
  metrics_.wal_bytes.add(wal_->bytes_appended() - before);

  apply_delete(accepted, /*replaying=*/false);
  publish_locked();
  span.arg_num("rows", static_cast<std::uint64_t>(accepted.size()));
  span.finish();
  if (dyn_.auto_maintain) maintain_locked();
  return accepted.size();
}

// --- Apply: the deterministic state transitions -----------------------------

void DynamicKnng::apply_record(const data::WalRecord& rec) {
  WKNNG_CHECK_MSG(rec.version == version_ + 1,
                  "WAL record version " << rec.version
                                        << " does not continue from "
                                        << version_);
  switch (rec.type) {
    case data::WalRecord::Type::kInsert:
      apply_insert(rec.rows, rec.external_ids, /*replaying=*/true);
      return;
    case data::WalRecord::Type::kDelete:
      apply_delete(rec.external_ids, /*replaying=*/true);
      return;
    case data::WalRecord::Type::kRepair:
      apply_repair(rec.rounds, /*replaying=*/true);
      return;
    case data::WalRecord::Type::kCompact:
      apply_compact(/*replaying=*/true);
      return;
  }
  throw IoError("WAL record with unknown type survived framing");
}

void DynamicKnng::apply_insert(const FloatMatrix& rows,
                               std::span<const std::uint32_t> external_ids,
                               bool replaying) {
  WKNNG_CHECK(rows.rows() == external_ids.size());
  const std::size_t old_n = points_.rows();
  const std::size_t batch = rows.rows();
  const std::size_t k = params_.k;

  // Phase 1: read-only descent over the frozen pre-batch graph. Every batch
  // row searches the same state (batch points never see each other), and each
  // query's RNG stream is keyed by its stable external id — the result is a
  // pure function of (pre-batch state, row, external id), independent of
  // batching and scheduling. Tombstoned rows are excluded from the results
  // (a deleted point must never become a new point's neighbor) but remain
  // navigable.
  core::SearchParams sp = dyn_.insert_search;
  sp.k = k;
  sp.seed = params_.seed;
  std::vector<std::uint64_t> tags(batch);
  for (std::size_t i = 0; i < batch; ++i) tags[i] = external_ids[i];
  const core::BatchSearchResult found = core::graph_search_batch(
      *pool_, points_, graph_, rows, tags, sp, nullptr, &acc_, nullptr,
      tombstone_);

  // Phase 2: grow storage, then connect — forward edges into the new rows,
  // reverse edges into the found neighbors, through the strategy-dispatched
  // k-NN set updates the build kernels use.
  points_ = append_rows(points_, rows);
  sets_.grow(points_.rows());
  tombstone_.resize(points_.rows(), 0);
  dirty_mark_.resize(points_.rows(), 0);
  external_.reserve(points_.rows());
  for (std::size_t i = 0; i < batch; ++i) {
    const auto internal = static_cast<std::uint32_t>(old_n + i);
    external_.push_back(external_ids[i]);
    intern_[external_ids[i]] = internal;
    if (external_ids[i] >= next_external_) next_external_ = external_ids[i] + 1;
  }

  const core::Strategy strategy = params_.strategy;
  simt::LaunchConfig config;
  config.scratch_bytes = params_.scratch_bytes;
  config.trace_label = "dynamic_connect";
  simt::launch_warps(*pool_, batch, config, &acc_, [&](Warp& w) {
    const auto id = static_cast<std::uint32_t>(old_n + w.id());
    const auto row = found.results.row(w.id());
    const std::size_t cnt = found.results.row_size(w.id());
    connect_point(w, sets_, strategy, id, row.subspan(0, cnt));
  });

  // Dirty marking happens host-side after the launch so the dirty list's
  // order never depends on warp scheduling.
  for (std::size_t i = 0; i < batch; ++i) {
    mark_dirty(static_cast<std::uint32_t>(old_n + i));
    const auto row = found.results.row(i);
    const std::size_t cnt = found.results.row_size(i);
    for (std::size_t s = 0; s < cnt; ++s) mark_dirty(row[s].id);
  }

  version_ += 1;
  graph_ = sets_.extract(*pool_);  // refresh: the next descent's frozen state
  force_reopt_ = true;  // row count changed: any optimized layout is stale
  if (!replaying) {
    metrics_.inserts.add(1);
    metrics_.insert_rows.add(batch);
  }
}

void DynamicKnng::apply_delete(std::span<const std::uint32_t> external_ids,
                               bool replaying) {
  std::vector<std::uint8_t> in_batch(points_.rows(), 0);
  std::size_t deleted = 0;
  for (const std::uint32_t ext : external_ids) {
    const auto it = intern_.find(ext);
    WKNNG_CHECK_MSG(it != intern_.end(),
                    "delete record names unknown external id " << ext);
    const std::uint32_t p = it->second;
    if (tombstone_[p]) continue;  // erase() filters these; replay is belt-and-braces
    tombstone_[p] = 1;
    ++tombstone_count_;
    in_batch[p] = 1;
    mark_dirty(p);
    ++deleted;
  }

  // Reverse pass: every live row pointing at a deleted one is graph-degraded
  // until repair re-scores it; find them in parallel, mark in host order.
  std::vector<std::uint8_t> touched(points_.rows(), 0);
  const std::size_t k = params_.k;
  pool_->parallel_for(points_.rows(), 256, [&](std::size_t p) {
    if (tombstone_[p]) return;
    std::vector<std::uint32_t> ids(k);
    const std::size_t cnt =
        sets_.snapshot_ids(static_cast<std::uint32_t>(p), ids.data());
    for (std::size_t s = 0; s < cnt; ++s) {
      if (ids[s] < in_batch.size() && in_batch[ids[s]] != 0) {
        touched[p] = 1;
        return;
      }
    }
  });
  for (std::size_t p = 0; p < touched.size(); ++p) {
    if (touched[p] != 0) mark_dirty(static_cast<std::uint32_t>(p));
  }

  version_ += 1;
  // sets_ (and so graph_) are untouched by a delete: visibility is the
  // published tombstone mask, repair/compaction do the edge work later.
  if (!replaying) {
    metrics_.deletes.add(1);
    metrics_.delete_rows.add(deleted);
  }
}

std::size_t DynamicKnng::repair(std::size_t rounds) {
  std::lock_guard<std::mutex> lock(mu_);
  return repair_locked(rounds == 0 ? dyn_.repair_rounds : rounds);
}

std::size_t DynamicKnng::repair_locked(std::size_t rounds) {
  if (dirty_.empty() || rounds == 0) return 0;
  obs::Span span = op_span(data::WalRecord::Type::kRepair, version_ + 1);
  data::WalRecord rec;
  rec.type = data::WalRecord::Type::kRepair;
  rec.version = version_ + 1;
  rec.rounds = static_cast<std::uint32_t>(rounds);
  const std::uint64_t before = wal_->bytes_appended();
  wal_->append(rec);
  metrics_.wal_records.add(1);
  metrics_.wal_bytes.add(wal_->bytes_appended() - before);

  const std::size_t repaired = apply_repair(rounds, /*replaying=*/false);
  publish_locked();
  span.arg_num("row_rounds", static_cast<std::uint64_t>(repaired));
  return repaired;
}

std::size_t DynamicKnng::apply_repair(std::size_t rounds, bool replaying) {
  const std::size_t k = params_.k;
  const std::size_t sample_cap =
      params_.refine_sample == 0 ? 512 : params_.refine_sample;
  std::size_t repaired = 0;

  for (std::size_t round = 0; round < rounds; ++round) {
    if (dirty_.empty()) break;
    std::vector<std::uint32_t> work = dirty_;
    std::sort(work.begin(), work.end());

    // Candidates come from a frozen adjacency snapshot; each warp scores them
    // against its own point and rewrites *only its own row* — the refine_round
    // discipline, which makes a round deterministic under any warp schedule.
    const core::Adjacency adj =
        core::snapshot_adjacency(*pool_, sets_, params_.reverse_cap);

    const simt::RowScorer scorer(points_);
    simt::LaunchConfig config;
    config.scratch_bytes = params_.scratch_bytes;
    config.trace_label = "dynamic_repair";
    simt::launch_warps(*pool_, work.size(), config, &acc_, [&](Warp& w) {
      const std::uint32_t p = work[w.id()];
      if (tombstone_[p] != 0) return;

      // The row's surviving live entries come first (their distances are
      // stored) and are marked seen, so the candidate pool below never
      // re-offers an id the row already holds: a duplicate word in a sorted
      // row would let a later merge free its slot, raise the row's worst
      // bound and make the tiled prune depend on insert order.
      const std::size_t rows = points_.rows();
      simt::VisitedBitmap& seen = simt::thread_visited(rows);
      seen.mark(p);
      TopK best(k);
      const std::uint64_t* slots = sets_.row(p);
      const auto live_id = [&](std::size_t s) {
        const std::uint64_t v = slots[s];
        return Packed::is_empty(v) || !Packed::is_finite(v)
                   ? core::Adjacency::kInvalidId
                   : Packed::id(v);
      };
      for (std::size_t s = 0; s < k; ++s) {
        const std::uint32_t id = live_id(s);
        if (id >= rows || tombstone_[id] != 0 || !seen.mark(id)) continue;
        best.push(Packed::dist(slots[s]), id);
      }
      w.count_read(k * sizeof(std::uint64_t));

      // Rescore the candidate pool (first-seen order), take the k best of
      // the union.
      const auto for_each_pool_id = [&](auto&& visit) {
        for (const std::uint32_t q : adj.forward(p)) visit(q);
        for (const std::uint32_t q : adj.reverse(p)) visit(q);
        for (const std::uint32_t q : adj.forward(p)) {
          for (const std::uint32_t r : adj.forward(q)) visit(r);
        }
        for (const std::uint32_t q : adj.reverse(p)) {
          for (const std::uint32_t r : adj.forward(q)) visit(r);
        }
      };
      std::vector<std::uint32_t> cand;
      cand.reserve(sample_cap);
      for_each_pool_id([&](std::uint32_t c) {
        if (c >= rows || !seen.mark(c)) return;
        if (tombstone_[c] != 0) return;  // lazy expansion exclusion
        if (cand.size() < sample_cap) cand.push_back(c);
      });
      // Every bit set above belongs to p, a row id or a pool id: clearing
      // them all leaves the worker's bitmap all-clear again.
      seen.unmark(p);
      for (std::size_t s = 0; s < k; ++s) {
        if (live_id(s) < rows) seen.unmark(live_id(s));
      }
      for_each_pool_id([&](std::uint32_t c) {
        if (c < rows) seen.unmark(c);
      });

      const simt::RowScorer::Query query =
          scorer.prepare(w, points_.row(p), {});
      for (std::size_t t0 = 0; t0 < cand.size(); t0 += kWarpSize) {
        const std::size_t cnt =
            std::min<std::size_t>(kWarpSize, cand.size() - t0);
        Lanes<std::uint32_t> lane_ids{};
        Lanes<bool> active{};
        for (std::size_t l = 0; l < cnt; ++l) {
          lane_ids[l] = cand[t0 + l];
          active[l] = true;
        }
        const Lanes<float> d = scorer.lanes(w, query, lane_ids, active);
        for (std::size_t l = 0; l < cnt; ++l) best.push(d[l], lane_ids[l]);
      }

      // Own-row rewrite, sorted ascending with kEmpty padding — valid under
      // every strategy's row invariant. Dropped tombstones can leave the row
      // short, raising its worst, so the write resets the row's bound.
      auto result = best.take_sorted();
      std::vector<std::uint64_t> out(k, Packed::kEmpty);
      for (std::size_t s = 0; s < result.size(); ++s) {
        out[s] = Packed::make(result[s].dist, result[s].id);
      }
      sets_.write_row(p, out);
      w.count_write(k * sizeof(std::uint64_t));
    });

    for (const std::uint32_t p : work) {
      if (tombstone_[p] == 0) ++repaired;
    }
  }

  for (const std::uint32_t p : dirty_) dirty_mark_[p] = 0;
  dirty_.clear();
  version_ += 1;
  graph_ = sets_.extract(*pool_);
  // Edge drift: the layout stays safe (same rows, same permutation) but
  // serves pre-repair adjacency; tolerated up to optimize_staleness passes.
  ++repairs_since_opt_;
  if (!replaying) {
    metrics_.repairs.add(1);
    metrics_.repaired_rows.add(repaired);
  }
  return repaired;
}

bool DynamicKnng::compact() {
  std::lock_guard<std::mutex> lock(mu_);
  return compact_locked();
}

bool DynamicKnng::compact_locked() {
  if (tombstone_count_ == 0) return false;
  if (tombstone_count_ >= points_.rows()) return false;  // refuse to empty
  obs::Span span = op_span(data::WalRecord::Type::kCompact, version_ + 1);
  data::WalRecord rec;
  rec.type = data::WalRecord::Type::kCompact;
  rec.version = version_ + 1;
  const std::uint64_t before = wal_->bytes_appended();
  wal_->append(rec);
  metrics_.wal_records.add(1);
  metrics_.wal_bytes.add(wal_->bytes_appended() - before);

  apply_compact(/*replaying=*/false);
  publish_locked();
  return true;
}

void DynamicKnng::apply_compact(bool replaying) {
  const std::size_t old_n = points_.rows();
  const std::size_t k = params_.k;

  // Live rows keep their relative order, so the remap is monotone and the
  // rewritten rows stay sorted after id substitution... except where a
  // tombstoned neighbor is dropped — those rows are marked dirty below.
  std::vector<std::uint32_t> remap(old_n, KnnGraph::kInvalid);
  std::vector<std::uint32_t> live;
  live.reserve(old_n - tombstone_count_);
  for (std::size_t p = 0; p < old_n; ++p) {
    if (tombstone_[p] != 0) continue;
    remap[p] = static_cast<std::uint32_t>(live.size());
    live.push_back(static_cast<std::uint32_t>(p));
  }
  const std::size_t new_n = live.size();
  WKNNG_CHECK_MSG(new_n > 0, "compaction would empty the index");

  std::vector<std::uint64_t> new_words(new_n * k, Packed::kEmpty);
  std::vector<std::uint8_t> lost(new_n, 0);
  pool_->parallel_for(new_n, 64, [&](std::size_t i) {
    const std::uint32_t p = live[i];
    const std::uint64_t* src = sets_.row(p);
    std::vector<std::uint64_t> vals;
    vals.reserve(k);
    for (std::size_t s = 0; s < k; ++s) {
      const std::uint64_t v = src[s];
      if (Packed::is_empty(v)) continue;
      const std::uint32_t id = Packed::id(v);
      if (!Packed::is_finite(v) || id >= old_n || id == p ||
          remap[id] == KnnGraph::kInvalid) {
        lost[i] = 1;  // dropped an edge: this row needs repair attention
        continue;
      }
      vals.push_back(Packed::make(Packed::dist(v), remap[id]));
    }
    std::sort(vals.begin(), vals.end());
    std::copy(vals.begin(), vals.end(), new_words.data() + i * k);
  });

  FloatMatrix new_points(new_n, dim_);
  pool_->parallel_for(new_n, 256, [&](std::size_t i) {
    const auto src = points_.row(live[i]);
    auto dst = new_points.row(i);
    std::copy(src.begin(), src.end(), dst.begin());
  });

  // Dirty set: surviving old marks (remapped, original order) plus every row
  // that lost an edge (ascending) — both host-side deterministic.
  std::vector<std::uint8_t> new_mark(new_n, 0);
  std::vector<std::uint32_t> new_dirty;
  for (const std::uint32_t p : dirty_) {
    const std::uint32_t m = remap[p];
    if (m == KnnGraph::kInvalid || new_mark[m] != 0) continue;
    new_mark[m] = 1;
    new_dirty.push_back(m);
  }
  for (std::size_t i = 0; i < new_n; ++i) {
    if (lost[i] != 0 && new_mark[i] == 0) {
      new_mark[i] = 1;
      new_dirty.push_back(static_cast<std::uint32_t>(i));
    }
  }

  std::vector<std::uint32_t> new_external(new_n);
  intern_.clear();
  intern_.reserve(new_n);
  for (std::size_t i = 0; i < new_n; ++i) {
    new_external[i] = external_[live[i]];
    intern_[new_external[i]] = static_cast<std::uint32_t>(i);
  }

  const std::size_t reclaimed = old_n - new_n;
  points_ = std::move(new_points);
  sets_.shrink(new_n);
  sets_.restore(new_words);
  external_ = std::move(new_external);
  tombstone_.assign(new_n, 0);
  tombstone_count_ = 0;
  dirty_mark_ = std::move(new_mark);
  dirty_ = std::move(new_dirty);
  version_ += 1;
  graph_ = sets_.extract(*pool_);
  force_reopt_ = true;  // internal ids rewritten: the permutation is void
  if (!replaying) {
    metrics_.compactions.add(1);
    metrics_.reclaimed_rows.add(reclaimed);
  }
}

void DynamicKnng::maintain() {
  std::lock_guard<std::mutex> lock(mu_);
  maintain_locked();
}

void DynamicKnng::maintain_locked() {
  if (dirty_.size() >= dyn_.repair_threshold) {
    repair_locked(dyn_.repair_rounds);
  }
  const double ratio =
      points_.rows() == 0
          ? 0.0
          : static_cast<double>(tombstone_count_) /
                static_cast<double>(points_.rows());
  if (tombstone_count_ > 0 && ratio >= dyn_.compact_threshold) {
    compact_locked();
  }
}

// --- Publication & introspection --------------------------------------------

void DynamicKnng::publish_locked() {
  auto snap = std::make_shared<serve::GraphSnapshot>(version_, points_, graph_);
  snap->tombstones =
      std::make_shared<const std::vector<std::uint8_t>>(tombstone_);
  snap->external_ids =
      std::make_shared<const std::vector<std::uint32_t>>(external_);
  if (dyn_.optimize) {
    const bool reusable = serving_ != nullptr && !force_reopt_ &&
                          repairs_since_opt_ <= dyn_.optimize_staleness &&
                          serving_->n() == points_.rows();
    if (!reusable) {
      // Structural staleness: the permutation, shape, or too much edge drift.
      // Build fresh under the writer lock — readers keep the previous
      // snapshot (previous layout included) until the swap below.
      serving_ = std::make_shared<const opt::ServingGraph>(opt::optimize_serving(
          *pool_, points_, graph_, dyn_.optimize_options, tombstone_, version_,
          &acc_));
      force_reopt_ = false;
      repairs_since_opt_ = 0;
      metrics_.layout_rebuilds.add(1);
      snap->serving = serving_;  // baked exclude == this version's tombstones
    } else {
      // Delete-only drift: the permutation is still exact, so reuse the
      // layout and re-permute the current tombstones into its id space —
      // points deleted since the build stay invisible on the optimized path.
      snap->serving = serving_;
      auto mask =
          std::make_shared<std::vector<std::uint8_t>>(points_.rows(), 0);
      for (std::size_t p = 0; p < points_.rows(); ++p) {
        (*mask)[serving_->old_to_new[p]] = tombstone_[p];
      }
      snap->serving_exclude = std::move(mask);
      metrics_.layout_reuses.add(1);
    }
  }
  std::shared_ptr<const serve::GraphSnapshot> pub = std::move(snap);
  slot_.publish(pub);
  refresh_gauges_locked();
  if (dyn_.slo != nullptr) dyn_.slo->note_publication(version_);
  if (dyn_.on_publish) dyn_.on_publish(std::move(pub));
}

void DynamicKnng::refresh_gauges_locked() {
  const auto total = static_cast<double>(points_.rows());
  metrics_.version.set(static_cast<double>(version_));
  metrics_.total_rows.set(total);
  metrics_.live_rows.set(total - static_cast<double>(tombstone_count_));
  metrics_.tombstones.set(static_cast<double>(tombstone_count_));
  metrics_.tombstone_ratio.set(
      total == 0.0 ? 0.0 : static_cast<double>(tombstone_count_) / total);
  metrics_.dirty_rows.set(static_cast<double>(dirty_.size()));
}

void DynamicKnng::mark_dirty(std::uint32_t internal) {
  if (dirty_mark_[internal] != 0) return;
  dirty_mark_[internal] = 1;
  dirty_.push_back(internal);
}

DynamicState DynamicKnng::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  DynamicState s;
  s.version = version_;
  s.total_rows = points_.rows();
  s.live_rows = points_.rows() - tombstone_count_;
  s.tombstones = tombstone_count_;
  s.dirty_rows = dirty_.size();
  s.next_external = next_external_;
  s.tombstone_ratio =
      s.total_rows == 0
          ? 0.0
          : static_cast<double>(s.tombstones) /
                static_cast<double>(s.total_rows);
  return s;
}

std::uint64_t DynamicKnng::version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return version_;
}

bool DynamicKnng::contains(std::uint32_t external_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = intern_.find(external_id);
  return it != intern_.end() && tombstone_[it->second] == 0;
}

}  // namespace wknng::dynamic
