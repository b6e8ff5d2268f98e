// Bitmaps over page indices, a 64-page word at a time: page p is bit
// p % 64 of word p / 64. HostPageCache keeps one per file id, MicroVm one
// for its resident and one for its written guest pages.
#pragma once

#include <algorithm>
#include <bit>
#include <vector>

#include "util/units.hpp"

namespace toss {

inline constexpr u64 kWordPages = 64;

/// Words a bitmap over `pages` pages needs.
inline constexpr u64 bitmap_words(u64 pages) {
  return (pages + kWordPages - 1) / kWordPages;
}

/// Calls f(word, mask) for each bitmap word pages [begin, end) touch, with
/// the mask of the range's pages within that word.
template <typename F>
void for_each_word(u64 begin, u64 end, F&& f) {
  for (u64 p = begin; p < end;) {
    const u64 word = p / kWordPages;
    const u64 lo = p % kWordPages;
    const u64 hi = std::min(end - word * kWordPages, kWordPages);
    const u64 upper = hi == kWordPages ? ~u64{0} : (u64{1} << hi) - 1;
    f(word, upper & ~((u64{1} << lo) - 1));
    p = word * kWordPages + hi;
  }
}

/// Calls f(begin, count) for each maximal run of set bits of `bits` below
/// page `end`, in page order (pages past the last word are clear). Costs
/// O(words + runs): a word inside a run or a gap is one comparison.
template <typename F>
void for_each_set_run(const std::vector<u64>& bits, u64 end, F&& f) {
  const u64 limit = std::min<u64>(end, bits.size() * kWordPages);
  bool open = false;
  u64 run_begin = 0;
  for (u64 w = 0; w * kWordPages < limit; ++w) {
    const u64 base = w * kWordPages;
    u64 word = bits[w];
    if (limit - base < kWordPages) word &= (u64{1} << (limit - base)) - 1;
    // Each pass finds the next flip: the end of the open run, or the start
    // of the next one.
    for (u64 pos = 0; pos < kWordPages;) {
      const u64 flips = (open ? ~word : word) >> pos;
      if (flips == 0) break;
      pos += static_cast<u64>(std::countr_zero(flips));
      if (open) {
        f(run_begin, base + pos - run_begin);
      } else {
        run_begin = base + pos;
      }
      open = !open;
    }
  }
  if (open) f(run_begin, limit - run_begin);
}

}  // namespace toss
