// Bitmaps over page indices, a 64-page word at a time: page p is bit
// p % 64 of word p / 64. HostPageCache keeps one per file id, MicroVm one
// for its resident and one for its written guest pages.
#pragma once

#include <algorithm>

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

}  // namespace toss
