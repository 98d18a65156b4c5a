#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace wknng {

/// Exception type thrown by all WKNNG_CHECK* failures. Carries the failed
/// condition text and the file:line of the check site.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

// --- Typed failures --------------------------------------------------------
// The recovery layer (core/builder, core/leaf_knn) distinguishes these to
// pick a policy: retry the bucket, fall back to another strategy, or give
// up. Each is thrown both by the real condition and by the matching
// fault-injection site (simt/fault.hpp), so recovery code cannot tell a
// simulated failure from a real one — which is the point.

/// A warp's scratch ("shared memory") budget was exceeded — the space
/// limitation that motivates the paper's global-memory strategies.
class ScratchOverflowError : public Error {
 public:
  using Error::Error;
};

/// A warp task aborted mid-kernel (injected preemption/kill).
class WarpAbortError : public Error {
 public:
  using Error::Error;
};

/// A spin-lock acquisition gave up (injected starvation/timeout).
class LockTimeoutError : public Error {
 public:
  using Error::Error;
};

/// A kernel launch could not allocate its grid (injected device OOM).
class LaunchAllocError : public Error {
 public:
  using Error::Error;
};

/// A build checkpoint does not match the parameters or data it is being
/// resumed with.
class CheckpointMismatchError : public Error {
 public:
  using Error::Error;
};

/// A persisted artifact (graph, checkpoint, sq8 codes, shard manifest) could
/// not be read or written: missing file, short read, size/header mismatch,
/// or trailing garbage. Every data/graph_io read path throws this instead of
/// reading past a truncated buffer.
class IoError : public Error {
 public:
  using Error::Error;
};

/// A shard build worker was lost mid-job: its heartbeat stopped and the
/// manager declared it dead (src/shard). The job is retried from its last
/// checkpoint by another worker.
class WorkerLostError : public Error {
 public:
  using Error::Error;
};

/// The SQ8 codec cannot be trained on the given set: it is empty, contains
/// non-finite values, or has zero variance in every dimension (all points
/// identical), so no meaningful per-dimension range exists.
class Sq8TrainError : public Error {
 public:
  using Error::Error;
};

/// A mutation batch was rejected at admission by the mutable-index layer
/// (dynamic::DynamicKnng): empty batch, dimension mismatch, a non-finite
/// row (also in the base rows of a fresh index), or an id that cannot be
/// resolved. Rejected batches are never applied and never reach the
/// write-ahead log.
class MutationError : public Error {
 public:
  using Error::Error;
};

/// Search parameters rejected at admission (core::validate_search_params):
/// a configuration that cannot produce meaningful results — e.g.
/// `entry_sample == 0`, which would seed the descent with an empty frontier
/// and silently answer every query with an empty row. Thrown before any
/// kernel launch so a misconfigured serving path fails loudly at setup, not
/// quietly at query time.
class SearchParamError : public Error {
 public:
  using Error::Error;
};

/// A served query's deadline passed before its result could be delivered
/// (src/serve): the request is answered with a typed timeout result instead
/// of its neighbors.
class DeadlineExceededError : public Error {
 public:
  using Error::Error;
};

/// A served query was rejected at admission because the request queue was
/// full (src/serve load shedding) or the engine was shutting down.
class OverloadShedError : public Error {
 public:
  using Error::Error;
};

namespace detail {

[[noreturn]] inline void throw_check_failure(const char* cond, const char* file,
                                             int line, const std::string& msg) {
  std::ostringstream os;
  os << "check failed: " << cond << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}

}  // namespace detail

}  // namespace wknng

/// Always-on invariant check (library public API boundary). Throws wknng::Error.
#define WKNNG_CHECK(cond)                                                    \
  do {                                                                       \
    if (!(cond)) {                                                           \
      ::wknng::detail::throw_check_failure(#cond, __FILE__, __LINE__, "");   \
    }                                                                        \
  } while (0)

/// Check with a streamed message: WKNNG_CHECK_MSG(k > 0, "k=" << k).
#define WKNNG_CHECK_MSG(cond, stream_expr)                                   \
  do {                                                                       \
    if (!(cond)) {                                                           \
      std::ostringstream wknng_os_;                                          \
      wknng_os_ << stream_expr;                                              \
      ::wknng::detail::throw_check_failure(#cond, __FILE__, __LINE__,        \
                                           wknng_os_.str());                 \
    }                                                                        \
  } while (0)
