#pragma once

#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <ostream>
#include <sstream>
#include <string>

namespace wknng::simt {

/// Work-unit counters for one warp (or an aggregate of many warps).
///
/// The substrate runs on a CPU, so wall-clock alone cannot be compared
/// directly against GPU numbers. These counters capture the quantities that
/// *do* determine GPU performance — distance evaluations, global-memory
/// traffic, atomic contention — and are the basis of the work-accounting
/// experiment (Tab. 3 in DESIGN.md).
struct Stats {
  std::uint64_t distance_evals = 0;   ///< full point-to-point distance computations
  std::uint64_t flops = 0;            ///< floating-point ops in distance kernels
  std::uint64_t global_reads = 0;     ///< bytes read from "global memory"
  std::uint64_t global_writes = 0;    ///< bytes written to "global memory"
  std::uint64_t atomic_ops = 0;       ///< completed atomic RMW operations
  std::uint64_t cas_retries = 0;      ///< failed CAS attempts (contention measure)
  std::uint64_t lock_acquires = 0;    ///< spin-lock acquisitions
  std::uint64_t lock_spins = 0;       ///< failed lock attempts while spinning
  std::uint64_t warp_collectives = 0; ///< modelled shuffles/ballots/reductions/scans
                                      ///< (charged only through simt/cost.hpp)
  std::uint64_t scratch_bytes_peak = 0; ///< max per-warp scratch footprint observed
  std::uint64_t warps_executed = 0;   ///< number of warp tasks accumulated here
  std::uint64_t shadow_events = 0;    ///< race-detector accesses recorded (0 unless
                                      ///< a detector is installed — see simt/race.hpp)
  std::uint64_t nonfinite_dropped = 0; ///< candidates rejected for NaN/inf distance
                                       ///< (corrupt input or injected corruption)

  Stats& operator+=(const Stats& o) {
    distance_evals += o.distance_evals;
    flops += o.flops;
    global_reads += o.global_reads;
    global_writes += o.global_writes;
    atomic_ops += o.atomic_ops;
    cas_retries += o.cas_retries;
    lock_acquires += o.lock_acquires;
    lock_spins += o.lock_spins;
    warp_collectives += o.warp_collectives;
    scratch_bytes_peak = scratch_bytes_peak > o.scratch_bytes_peak
                             ? scratch_bytes_peak
                             : o.scratch_bytes_peak;
    warps_executed += o.warps_executed;
    shadow_events += o.shadow_events;
    nonfinite_dropped += o.nonfinite_dropped;
    return *this;
  }

  /// JSON object with one key per counter. The conditional counters
  /// (`shadow_events`, `nonfinite_dropped`) appear only when non-zero,
  /// matching operator<< — a clean run's stats dump stays free of
  /// debugging-machinery noise.
  std::string to_json() const {
    std::ostringstream os;
    os << "{\"distance_evals\":" << distance_evals << ",\"flops\":" << flops
       << ",\"global_reads\":" << global_reads
       << ",\"global_writes\":" << global_writes
       << ",\"atomic_ops\":" << atomic_ops
       << ",\"cas_retries\":" << cas_retries
       << ",\"lock_acquires\":" << lock_acquires
       << ",\"lock_spins\":" << lock_spins
       << ",\"warp_collectives\":" << warp_collectives
       << ",\"scratch_bytes_peak\":" << scratch_bytes_peak
       << ",\"warps_executed\":" << warps_executed;
    if (shadow_events != 0) os << ",\"shadow_events\":" << shadow_events;
    if (nonfinite_dropped != 0) {
      os << ",\"nonfinite_dropped\":" << nonfinite_dropped;
    }
    os << "}";
    return os.str();
  }

  /// Inverse of to_json for flat Stats objects: scans for each known
  /// `"key":value` pair; absent keys stay zero. Tolerates whitespace after
  /// the colon but is not a general JSON parser — it exists for round-trip
  /// tests and tool-side ingestion of our own output.
  static Stats from_json(const std::string& json) {
    Stats s;
    const auto field = [&json](const char* key) -> std::uint64_t {
      const std::string needle = std::string("\"") + key + "\":";
      const std::size_t pos = json.find(needle);
      if (pos == std::string::npos) return 0;
      const char* p = json.c_str() + pos + needle.size();
      while (*p == ' ') ++p;
      return std::strtoull(p, nullptr, 10);
    };
    s.distance_evals = field("distance_evals");
    s.flops = field("flops");
    s.global_reads = field("global_reads");
    s.global_writes = field("global_writes");
    s.atomic_ops = field("atomic_ops");
    s.cas_retries = field("cas_retries");
    s.lock_acquires = field("lock_acquires");
    s.lock_spins = field("lock_spins");
    s.warp_collectives = field("warp_collectives");
    s.scratch_bytes_peak = field("scratch_bytes_peak");
    s.warps_executed = field("warps_executed");
    s.shadow_events = field("shadow_events");
    s.nonfinite_dropped = field("nonfinite_dropped");
    return s;
  }

  friend std::ostream& operator<<(std::ostream& os, const Stats& s) {
    os << "dist_evals=" << s.distance_evals << " flops=" << s.flops
       << " gmem_rd=" << s.global_reads << " gmem_wr=" << s.global_writes
       << " atomics=" << s.atomic_ops << " cas_retry=" << s.cas_retries
       << " locks=" << s.lock_acquires << " lock_spin=" << s.lock_spins
       << " collectives=" << s.warp_collectives
       << " warps=" << s.warps_executed;
    if (s.shadow_events != 0) os << " shadow=" << s.shadow_events;
    if (s.nonfinite_dropped != 0) os << " nonfinite=" << s.nonfinite_dropped;
    return os;
  }
};

/// Work done between two cumulative snapshots: every additive counter is
/// subtracted, while `scratch_bytes_peak` (a max-merge, not a sum) is taken
/// from `after`. This is how trace spans attribute Stats to the interval
/// they cover.
inline Stats stats_delta(const Stats& after, const Stats& before) {
  Stats d;
  d.distance_evals = after.distance_evals - before.distance_evals;
  d.flops = after.flops - before.flops;
  d.global_reads = after.global_reads - before.global_reads;
  d.global_writes = after.global_writes - before.global_writes;
  d.atomic_ops = after.atomic_ops - before.atomic_ops;
  d.cas_retries = after.cas_retries - before.cas_retries;
  d.lock_acquires = after.lock_acquires - before.lock_acquires;
  d.lock_spins = after.lock_spins - before.lock_spins;
  d.warp_collectives = after.warp_collectives - before.warp_collectives;
  d.scratch_bytes_peak = after.scratch_bytes_peak;
  d.warps_executed = after.warps_executed - before.warps_executed;
  d.shadow_events = after.shadow_events - before.shadow_events;
  d.nonfinite_dropped = after.nonfinite_dropped - before.nonfinite_dropped;
  return d;
}

/// Thread-safe sink that warp tasks flush their local Stats into at the end
/// of their lifetime. One mutex-protected flush per warp task keeps the hot
/// path (plain member increments on the local Stats) contention-free.
class StatsAccumulator {
 public:
  void flush(const Stats& s) {
    std::lock_guard<std::mutex> lock(mutex_);
    total_ += s;
  }

  Stats total() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return total_;
  }

  void reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    total_ = Stats{};
  }

 private:
  mutable std::mutex mutex_;
  Stats total_;
};

}  // namespace wknng::simt
