// Tab. 2 — substrate microbenchmarks (ablation of the enabling machinery).
//
// Host throughput of the in-register bitonic sort, the sorted-run merge, the
// tiled run submission, the atomic insert, the distance kernels and the
// spin lock. These are the primitive costs the three strategies are built
// from; their ratios explain the strategy crossovers.

#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "core/knn_set.hpp"
#include "kernels/kernels.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "simt/fault.hpp"
#include "simt/memory.hpp"
#include "simt/packed.hpp"
#include "simt/sort.hpp"
#include "simt/warp_distance.hpp"

namespace wknng::simt {
namespace {

class Fixture {
 public:
  Fixture() : warp_(0, scratch_, stats_) {}
  WarpScratch scratch_;
  Stats stats_;
  Warp warp_;
};

// Inputs come from a pool built before the timed loop: pausing the timer per
// iteration costs about as much as the sort itself.
void BM_BitonicSort32(benchmark::State& state) {
  Fixture f;
  Rng rng(1);
  std::vector<Lanes<std::uint64_t>> pool(256);
  for (auto& v : pool) {
    for (auto& x : v) x = rng.next_u64();
  }
  std::size_t next = 0;
  for (auto _ : state) {
    Lanes<std::uint64_t> v = pool[next];
    next = (next + 1) % pool.size();
    bitonic_sort_lanes(f.warp_, v);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations() * kWarpSize);
}
BENCHMARK(BM_BitonicSort32);

// Sorted runs come from a pool built before the timed loop, so only the
// merge is timed. Its loop emits k words whatever the values, so the list
// falling over the iterations does not change the cost.
void BM_MergeSortedRun(benchmark::State& state) {
  Fixture f;
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  std::vector<std::uint64_t> list(k), tmp(k);
  for (auto& x : list) x = rng.next_below(1U << 30);
  std::sort(list.begin(), list.end());
  std::vector<Lanes<std::uint64_t>> runs(256);
  for (auto& run : runs) {
    for (auto& x : run) x = rng.next_below(1U << 30);
    std::sort(run.begin(), run.end());
  }
  std::size_t next = 0;
  for (auto _ : state) {
    merge_sorted_run<std::uint64_t>(f.warp_, list, runs[next], tmp,
                                    Packed::kEmpty);
    next = (next + 1) % runs.size();
    benchmark::DoNotOptimize(list.data());
  }
  state.SetItemsProcessed(state.iterations() * kWarpSize);
}
BENCHMARK(BM_MergeSortedRun)->Arg(10)->Arg(20)->Arg(40)->Arg(80);

// The tiled strategy's run submission, core::KnnSetArray::merge_tile, over a
// full k=16 row with distances 1..16. Arg 0: every lane lies above the row
// bound, so the submission ends after the bound read. Arg 1: lanes spread
// over [0, 32), so about half pass the bound and are sorted and merged.
// Each iteration restores the row first (16 words), so the bound never
// falls. The modelled cost of both is BM_BitonicSort32's network plus the
// merge; this row prices what the host pays for it.
void BM_MergeTile(benchmark::State& state) {
  Fixture f;
  const bool merged = state.range(0) != 0;
  constexpr std::size_t k = 16;
  std::vector<std::uint64_t> row(k);
  for (std::size_t i = 0; i < k; ++i) {
    row[i] = Packed::make(static_cast<float>(i + 1), static_cast<std::uint32_t>(i));
  }
  core::KnnSetArray sets(1, k);
  Rng rng(4);
  std::vector<Lanes<std::uint64_t>> runs(256);
  for (auto& run : runs) {
    for (int l = 0; l < kWarpSize; ++l) {
      const float dist = merged ? 32.0f * rng.next_float()
                                : 16.5f + 16.0f * rng.next_float();
      run[l] = Packed::make(dist, static_cast<std::uint32_t>(100 + l));
    }
  }
  std::size_t next = 0;
  for (auto _ : state) {
    sets.restore(row);
    sets.merge_tile(f.warp_, 0, runs[next]);
    next = (next + 1) % runs.size();
    benchmark::DoNotOptimize(sets.row(0));
  }
  state.SetItemsProcessed(state.iterations() * kWarpSize);
}
BENCHMARK(BM_MergeTile)->ArgName("merged")->Arg(0)->Arg(1);

// The atomic strategy's insert, core::KnnSetArray::insert_atomic, into a
// full k=16 row with distances 1..16. Arg 1: the candidate (distance 20) is
// at or above the row's bound word, so the insert ends after one 8-byte
// load. Arg 0: the candidate (distance 0.5, a new id) passes the bound, so
// the insert scans the row, CASes its worst slot and lowers the bound. Each
// iteration restores the row first (16 words and the bound).
void BM_InsertAtomic(benchmark::State& state) {
  Fixture f;
  const bool pruned = state.range(0) != 0;
  constexpr std::size_t k = 16;
  std::vector<std::uint64_t> row(k);
  for (std::size_t i = 0; i < k; ++i) {
    row[i] = Packed::make(static_cast<float>(i + 1), static_cast<std::uint32_t>(i));
  }
  core::KnnSetArray sets(1, k);
  const std::uint64_t cand = Packed::make(pruned ? 20.0f : 0.5f, 100);
  for (auto _ : state) {
    sets.restore(row);
    sets.insert_atomic(f.warp_, 0, cand);
    benchmark::DoNotOptimize(sets.row(0));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InsertAtomic)->ArgName("pruned")->Arg(0)->Arg(1);

// The pair shape of RowScorer over fp32 rows: one query row against row 1.
void BM_WarpL2Dims(benchmark::State& state) {
  Fixture f;
  const std::size_t dim = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  FloatMatrix rows(2, dim);
  for (std::size_t d = 0; d < dim; ++d) {
    rows.row(0)[d] = rng.next_float();
    rows.row(1)[d] = rng.next_float();
  }
  const RowScorer scorer(rows);
  const RowScorer::Query q = scorer.prepare(f.warp_, rows.row(0), {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(scorer.pair(f.warp_, q, 1));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["dim"] = static_cast<double>(dim);
}
BENCHMARK(BM_WarpL2Dims)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

// --- Dispatched distance-kernel backends ----------------------------------
// Raw throughput of the three l2 primitives per ISA backend (scalar / sse2 /
// avx2), same dims as BM_WarpL2Dims. The scalar-vs-avx2 ratio here is the
// vectorization speedup the dispatch layer buys; BENCH_*.json records it.

void BM_KernelL2One(benchmark::State& state) {
  const auto backend = static_cast<kernels::Backend>(state.range(0));
  const kernels::KernelOps* ops = kernels::ops_for(backend);
  if (ops == nullptr) {
    state.SkipWithError("backend unavailable on this CPU/build");
    return;
  }
  const std::size_t dim = static_cast<std::size_t>(state.range(1));
  Rng rng(3);
  std::vector<float> x(dim), y(dim);
  for (std::size_t d = 0; d < dim; ++d) {
    x[d] = rng.next_float();
    y[d] = rng.next_float();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops->l2_one(x.data(), y.data(), dim));
  }
  state.SetLabel(ops->name);
  state.SetItemsProcessed(state.iterations());
  state.counters["dim"] = static_cast<double>(dim);
}

void BM_KernelL2Batch(benchmark::State& state) {
  const auto backend = static_cast<kernels::Backend>(state.range(0));
  const kernels::KernelOps* ops = kernels::ops_for(backend);
  if (ops == nullptr) {
    state.SkipWithError("backend unavailable on this CPU/build");
    return;
  }
  const std::size_t dim = static_cast<std::size_t>(state.range(1));
  constexpr std::size_t kL = 32;
  Rng rng(4);
  std::vector<float> q(dim);
  std::vector<std::vector<float>> rows(kL, std::vector<float>(dim));
  for (std::size_t d = 0; d < dim; ++d) q[d] = rng.next_float();
  std::vector<const float*> row_ptrs(kL);
  std::vector<float> norms(kL);
  for (std::size_t l = 0; l < kL; ++l) {
    for (std::size_t d = 0; d < dim; ++d) rows[l][d] = rng.next_float();
    row_ptrs[l] = rows[l].data();
    norms[l] = ops->norm_sq(rows[l].data(), dim);
  }
  std::vector<float> out(kL);
  for (auto _ : state) {
    ops->l2_batch(q.data(), row_ptrs.data(), norms.data(), kL, dim, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(ops->name);
  state.SetItemsProcessed(state.iterations() * kL);
  state.counters["dim"] = static_cast<double>(dim);
}

void BM_KernelL2Tile(benchmark::State& state) {
  const auto backend = static_cast<kernels::Backend>(state.range(0));
  const kernels::KernelOps* ops = kernels::ops_for(backend);
  if (ops == nullptr) {
    state.SkipWithError("backend unavailable on this CPU/build");
    return;
  }
  const std::size_t dim = static_cast<std::size_t>(state.range(1));
  constexpr std::size_t kT = 32;  // one warp tile, as in the tiled strategy
  Rng rng(5);
  std::vector<std::vector<float>> rows(2 * kT, std::vector<float>(dim));
  std::vector<const float*> ptrs(2 * kT);
  std::vector<float> norms(2 * kT);
  for (std::size_t r = 0; r < 2 * kT; ++r) {
    for (std::size_t d = 0; d < dim; ++d) rows[r][d] = rng.next_float();
    ptrs[r] = rows[r].data();
    norms[r] = ops->norm_sq(rows[r].data(), dim);
  }
  std::vector<float> out(kT * kT);
  for (auto _ : state) {
    ops->l2_tile(ptrs.data(), norms.data(), kT, ptrs.data() + kT,
                 norms.data() + kT, kT, dim, out.data(), kT);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(ops->name);
  state.SetItemsProcessed(state.iterations() * kT * kT);
  state.counters["dim"] = static_cast<double>(dim);
}

void register_kernel_benchmarks() {
  for (int backend = 0; backend < 3; ++backend) {
    if (kernels::ops_for(static_cast<kernels::Backend>(backend)) == nullptr) {
      continue;
    }
    for (int dim : {16, 64, 256, 1024}) {
      benchmark::RegisterBenchmark("BM_KernelL2One", BM_KernelL2One)
          ->Args({backend, dim});
      benchmark::RegisterBenchmark("BM_KernelL2Batch", BM_KernelL2Batch)
          ->Args({backend, dim});
      benchmark::RegisterBenchmark("BM_KernelL2Tile", BM_KernelL2Tile)
          ->Args({backend, dim});
    }
  }
}
const int kernel_benchmarks_registered = (register_kernel_benchmarks(), 0);

// --- Race-instrumentation overhead guard ----------------------------------
// plain_load/plain_store vs raw access with NO detector installed. The pair
// must be indistinguishable (the hook is one relaxed atomic load and a
// predicted branch) — if Instrumented ever diverges from Raw here, the
// "zero-cost when disabled" contract of simt/race.hpp is broken.

void BM_GlobalAccessRaw(benchmark::State& state) {
  std::vector<std::uint64_t> cells(64, 1);
  std::size_t i = 0;
  for (auto _ : state) {
    std::uint64_t v = cells[i & 63];
    cells[(i + 7) & 63] = v + 1;
    benchmark::DoNotOptimize(v);
    ++i;
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_GlobalAccessRaw);

void BM_GlobalAccessInstrumented(benchmark::State& state) {
  std::vector<std::uint64_t> cells(64, 1);
  std::size_t i = 0;
  for (auto _ : state) {
    std::uint64_t v = plain_load(cells[i & 63]);
    plain_store(cells[(i + 7) & 63], v + 1);
    benchmark::DoNotOptimize(v);
    ++i;
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_GlobalAccessInstrumented);

// --- Fault-hook overhead guard --------------------------------------------
// Same contract as the race pair above, for simt/fault.hpp: with NO injector
// installed, fault_maybe_throw / fault_corrupt_distance must cost one relaxed
// load and a predicted branch. If Hooked ever diverges from Raw here, the
// "zero-cost when disabled" promise of the fault campaign is broken.

void BM_FaultPointRaw(benchmark::State& state) {
  std::vector<float> dists(64, 1.5f);
  std::size_t i = 0;
  float acc = 0.0f;
  for (auto _ : state) {
    acc += dists[i & 63];
    benchmark::DoNotOptimize(acc);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FaultPointRaw);

void BM_FaultPointHooked(benchmark::State& state) {
  std::vector<float> dists(64, 1.5f);
  std::size_t i = 0;
  float acc = 0.0f;
  for (auto _ : state) {
    fault_maybe_throw(FaultSite::kWarpAbort);
    acc += fault_corrupt_distance(dists[i & 63]);
    benchmark::DoNotOptimize(acc);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FaultPointHooked);

// --- Span-tracing overhead guard ------------------------------------------
// Same contract as the race/fault pairs, for obs/trace.hpp: with NO tracer
// installed, the launch path's tracer check must cost one acquire load and a
// predicted branch. If SpanEnabled(off) ever diverges from SpanRaw here, the
// "tracing disabled adds no hot-path cost" promise is broken.

void BM_SpanRaw(benchmark::State& state) {
  std::vector<float> dists(64, 1.5f);
  std::size_t i = 0;
  float acc = 0.0f;
  for (auto _ : state) {
    acc += dists[i & 63];
    benchmark::DoNotOptimize(acc);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanRaw);

void BM_SpanEnabled(benchmark::State& state) {
  std::vector<float> dists(64, 1.5f);
  std::size_t i = 0;
  float acc = 0.0f;
  std::uint64_t launches = 0;
  for (auto _ : state) {
    // The exact disabled-path shape launch_warps executes per launch.
    if (obs::Tracer* t = obs::active_tracer()) {
      launches += t->next_launch();
    }
    acc += dists[i & 63];
    benchmark::DoNotOptimize(acc);
    benchmark::DoNotOptimize(launches);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanEnabled);

// --- Flight-recorder overhead guard ---------------------------------------
// Same contract as the race/fault/span pairs, for obs/flight.hpp: with NO
// recorder installed, the serve completion path's active_flight_recorder()
// check must cost one acquire load and a predicted branch — BM_FlightOff must
// be indistinguishable from the raw loop. BM_FlightOn prices the enabled
// path (build one FlightRecord + ring write under the recorder mutex); per
// completion that is tens of nanoseconds against a serve p99 of hundreds of
// microseconds, the <=3% overhead budget fig15 reports end to end.

void BM_FlightOff(benchmark::State& state) {
  std::vector<float> dists(64, 1.5f);
  std::size_t i = 0;
  float acc = 0.0f;
  for (auto _ : state) {
    // The exact disabled-path shape ServeEngine::finish executes.
    if (obs::FlightRecorder* fr = obs::active_flight_recorder()) {
      obs::FlightRecord rec;
      rec.tag = i;
      fr->record(rec);
    }
    acc += dists[i & 63];
    benchmark::DoNotOptimize(acc);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlightOff);

void BM_FlightOn(benchmark::State& state) {
  obs::FlightOptions fo;
  fo.capacity = 1024;
  obs::FlightRecorder recorder(fo);
  obs::ScopedFlightRecording scope(recorder);
  std::vector<float> dists(64, 1.5f);
  std::size_t i = 0;
  float acc = 0.0f;
  for (auto _ : state) {
    if (obs::FlightRecorder* fr = obs::active_flight_recorder()) {
      obs::FlightRecord rec;
      rec.request_id = i;
      rec.tag = i;
      rec.snapshot_version = 1;
      rec.total_us = dists[i & 63];
      fr->record(rec);
    }
    acc += dists[i & 63];
    benchmark::DoNotOptimize(acc);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlightOn);

void BM_SpinLockRoundTrip(benchmark::State& state) {
  Stats stats;
  SpinLockArray locks(1);
  for (auto _ : state) {
    locks.acquire(0, stats);
    locks.release(0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpinLockRoundTrip);

}  // namespace
}  // namespace wknng::simt

BENCHMARK_MAIN();
