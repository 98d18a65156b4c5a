#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>

#include "common/error.hpp"
#include "simt/fault.hpp"
#include "simt/race.hpp"
#include "simt/stats.hpp"

namespace wknng::simt {

/// A "global memory" allocation: plain host memory dressed in the device
/// vocabulary. The wrapper exists so kernel code reads like device code and
/// so concurrent regions are explicit — any cell that multiple warps may
/// touch concurrently must be accessed through the atomic_* helpers below,
/// which are implemented with std::atomic_ref (C++20) on the raw storage.
template <typename T>
class DeviceBuffer {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  DeviceBuffer() = default;

  explicit DeviceBuffer(std::size_t n, T fill = T{}) { assign(n, fill); }

  void assign(std::size_t n, T fill = T{}) {
    size_ = n;
    data_ = std::make_unique<T[]>(n);
    for (std::size_t i = 0; i < n; ++i) data_[i] = fill;
  }

  /// Grows to n elements, preserving the existing prefix; new cells get
  /// `fill`. Must not race with concurrent access (host-side reallocation).
  void resize_preserving(std::size_t n, T fill = T{}) {
    auto next = std::make_unique<T[]>(n);
    const std::size_t keep = std::min(size_, n);
    for (std::size_t i = 0; i < keep; ++i) next[i] = data_[i];
    for (std::size_t i = keep; i < n; ++i) next[i] = fill;
    data_ = std::move(next);
    size_ = n;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T* data() { return data_.get(); }
  const T* data() const { return data_.get(); }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

  std::span<T> span() { return {data_.get(), size_}; }
  std::span<const T> span() const { return {data_.get(), size_}; }

  std::span<T> subspan(std::size_t offset, std::size_t n) {
    return span().subspan(offset, n);
  }
  std::span<const T> subspan(std::size_t offset, std::size_t n) const {
    return span().subspan(offset, n);
  }

 private:
  std::size_t size_ = 0;
  std::unique_ptr<T[]> data_;
};

/// Starts loading the cache line at `addr` for a read: a hint, never a
/// semantic — compilers without the builtin skip it.
inline void prefetch(const void* addr) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr, 0, 1);
#else
  (void)addr;
#endif
}

// --- Plain global-memory operations ----------------------------------------
// Instrumented counterparts of an ordinary load/store. When no RaceDetector
// is installed (the default) each hook is one relaxed load of a global plus
// a predicted-not-taken branch — kernels pay nothing measurable. When a
// detector is installed every access feeds the shadow state, so lock-
// discipline violations between warps are flagged (see simt/race.hpp).

/// Plain (non-atomic) load of a global cell. Racing with a concurrent plain
/// write IS a data race and will be flagged by the detector; use the
/// atomic_* helpers for intentionally concurrent cells.
template <typename T>
inline T plain_load(const T& cell) {
  race_on_access(&cell, AccessKind::kPlainRead);
  return cell;
}

/// Plain (non-atomic) store to a global cell.
template <typename T>
inline void plain_store(T& cell, T value) {
  race_on_access(&cell, AccessKind::kPlainWrite);
  cell = value;
}

// --- Atomic global-memory operations ---------------------------------------
// The read-modify-write takes the warp's Stats so contention is measurable;
// the cas_retries counter is the substrate's proxy for the serialisation
// that atomic conflicts cause on real hardware.

/// Relaxed atomic load (CUDA: plain global load of a volatile cell).
template <typename T>
inline T atomic_load(const T& cell) {
  race_on_access(&cell, AccessKind::kAtomicRead);
  return std::atomic_ref<T>(const_cast<T&>(cell)).load(std::memory_order_relaxed);
}

/// Relaxed atomic store.
template <typename T>
inline void atomic_store(T& cell, T value) {
  race_on_access(&cell, AccessKind::kAtomicWrite);
  std::atomic_ref<T>(cell).store(value, std::memory_order_relaxed);
}

/// Single compare-and-swap attempt (CUDA atomicCAS). On failure `expected`
/// is updated with the observed value and cas_retries is bumped.
inline bool atomic_cas(std::uint64_t& cell, std::uint64_t& expected,
                       std::uint64_t desired, Stats& stats) {
  ++stats.atomic_ops;
  race_on_access(&cell, AccessKind::kAtomicRmw);
  const bool ok = std::atomic_ref<std::uint64_t>(cell).compare_exchange_strong(
      expected, desired, std::memory_order_acq_rel, std::memory_order_relaxed);
  if (!ok) ++stats.cas_retries;
  return ok;
}

/// Array of per-element spin locks — the "basic" and "tiled" strategies use
/// one lock per point to serialise k-NN-set updates, mimicking the classic
/// GPU idiom of a global lock word grabbed by lane 0 of a warp.
class SpinLockArray {
 public:
  SpinLockArray() = default;

  explicit SpinLockArray(std::size_t n) { assign(n); }

  void assign(std::size_t n) {
    size_ = n;
    locks_ = std::make_unique<std::atomic<std::uint32_t>[]>(n);
    for (std::size_t i = 0; i < n; ++i) {
      locks_[i].store(0, std::memory_order_relaxed);
    }
  }

  std::size_t size() const { return size_; }

  /// Spins until lock i is acquired; every failed attempt is recorded. The
  /// acquisition is reported to the race detector's lockset machinery. The
  /// kLockTimeout fault site fires before the lock is taken, so an injected
  /// LockTimeoutError never leaves a lock held.
  void acquire(std::size_t i, Stats& stats) {
    fault_maybe_throw(FaultSite::kLockTimeout);
    ++stats.lock_acquires;
    std::uint32_t expected = 0;
    while (!locks_[i].compare_exchange_weak(expected, 1,
                                            std::memory_order_acquire,
                                            std::memory_order_relaxed)) {
      ++stats.lock_spins;
      expected = 0;
    }
    race_on_lock_acquire(&locks_[i]);
  }

  void release(std::size_t i) {
    race_on_lock_release(&locks_[i]);
    locks_[i].store(0, std::memory_order_release);
  }

 private:
  std::size_t size_ = 0;
  std::unique_ptr<std::atomic<std::uint32_t>[]> locks_;
};

}  // namespace wknng::simt
