#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace wknng::simt {

/// One bit per point id: the visited set of a neighbor-of-neighbor gather
/// (refine's candidate gather, the dynamic index's row repair). A gather
/// marks ids as it meets them, keeps an id only on its first mark, and
/// before it returns unmarks exactly the ids it marked. The bitmap is
/// therefore all-clear between gathers with no per-gather O(n) clear and no
/// epoch counter, and it costs n/8 bytes per worker.
class VisitedBitmap {
 public:
  /// Covers ids [0, n); bits added by growth start clear. Never shrinks.
  void reserve(std::size_t n) {
    const std::size_t words = (n + 63) / 64;
    if (words_.size() < words) words_.resize(words, 0);
  }

  /// Sets id's bit; true iff it was clear (the first visit).
  bool mark(std::uint32_t id) {
    std::uint64_t& word = words_[id >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (id & 63);
    const bool first = (word & bit) == 0;
    word |= bit;
    return first;
  }

  /// True iff id's bit is set.
  bool test(std::uint32_t id) const {
    return ((words_[id >> 6] >> (id & 63)) & 1) != 0;
  }

  void unmark(std::uint32_t id) {
    words_[id >> 6] &= ~(std::uint64_t{1} << (id & 63));
  }
  void unmark(std::span<const std::uint32_t> ids) {
    for (const std::uint32_t id : ids) unmark(id);
  }

  /// True iff no bit is set (an O(n/64) scan, for tests and checks).
  bool all_clear() const {
    for (const std::uint64_t word : words_) {
      if (word != 0) return false;
    }
    return true;
  }

 private:
  std::vector<std::uint64_t> words_;
};

/// The calling worker thread's bitmap, grown to cover ids [0, n). Like the
/// worker's scratch arena it is reused across warp tasks and launches; it is
/// all-clear on entry because every user unmarks what it marked.
inline VisitedBitmap& thread_visited(std::size_t n) {
  thread_local VisitedBitmap visited;
  visited.reserve(n);
  return visited;
}

}  // namespace wknng::simt
