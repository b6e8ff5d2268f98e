// Page-indexed state as runs: the maximal runs of equal value that tile a
// range of guest pages [0, num_pages).
//
// Guest contents, tier placements and working sets all change value at a
// handful of page boundaries, so each is held as one run list and every
// read and write costs O(runs), whatever the guest size. Every mutator
// keeps the list canonical (runs are nonempty, maximal and tile the
// range), so the defaulted == is equality page by page.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <vector>

#include "util/contracts.hpp"
#include "util/units.hpp"

namespace toss {

/// Pages [page_begin, page_begin + page_count), all at `value`.
template <class V>
struct PageRun {
  u64 page_begin = 0;
  u64 page_count = 0;
  V value{};

  u64 page_end() const { return page_begin + page_count; }
  bool operator==(const PageRun&) const = default;
};

template <class V>
class PageRuns {
 public:
  PageRuns() = default;
  /// `num_pages` pages at `value`.
  PageRuns(u64 num_pages, V value) { push(runs_, num_pages, value); }

  u64 num_pages() const { return runs_.empty() ? 0 : runs_.back().page_end(); }

  /// The maximal runs of equal value, in page order.
  const std::vector<PageRun<V>>& runs() const { return runs_; }

  /// One page's value (a binary search over the runs).
  V at(u64 page) const {
    TOSS_REQUIRE(page < num_pages());
    return runs_[run_of(page)].value;
  }

  /// Calls f(value, pages) for each run's part inside
  /// [first_page, first_page + page_count), in page order.
  template <class F>
  void for_each_in(u64 first_page, u64 page_count, F&& f) const {
    TOSS_REQUIRE(first_page + page_count <= num_pages());
    if (page_count == 0) return;
    const u64 end = first_page + page_count;
    for (size_t i = run_of(first_page);
         i < runs_.size() && runs_[i].page_begin < end; ++i) {
      const PageRun<V>& r = runs_[i];
      f(r.value,
        std::min(end, r.page_end()) - std::max(first_page, r.page_begin));
    }
  }

  /// Extends the range by `page_count` pages at `value`.
  void append(u64 page_count, V value) {
    push(runs_, page_count, value);
    TOSS_ASSERT(canonical());
  }

  /// Extends the range by pages [first_page, first_page + page_count) of
  /// `source`.
  void append(const PageRuns& source, u64 first_page, u64 page_count) {
    TOSS_REQUIRE(&source != this);
    source.for_each_in(first_page, page_count,
                       [&](V value, u64 pages) { push(runs_, pages, value); });
    TOSS_ASSERT(canonical());
  }

  /// Sets every page of [first_page, first_page + page_count) to `value`.
  void assign(u64 first_page, u64 page_count, V value) {
    update(first_page, page_count, [&](V) { return value; });
  }

  /// Replaces every page's value v in [first_page, first_page + page_count)
  /// by f(v).
  template <class F>
  void update(u64 first_page, u64 page_count, F&& f) {
    TOSS_REQUIRE(first_page + page_count <= num_pages());
    if (page_count == 0) return;
    // Cut runs at both ends of the range, map the runs between the cuts,
    // then merge equal neighbours from the run before the range to the
    // run after it.
    const size_t lo = split_at(first_page);
    const size_t hi = split_at(first_page + page_count);
    for (size_t i = lo; i < hi; ++i) runs_[i].value = f(runs_[i].value);
    coalesce(lo > 0 ? lo - 1 : 0, std::min(hi + 1, runs_.size()));
    TOSS_ASSERT(canonical());
  }

  /// Drops every page from `num_pages` on.
  void truncate(u64 num_pages) {
    TOSS_REQUIRE(num_pages <= this->num_pages());
    while (!runs_.empty() && runs_.back().page_begin >= num_pages)
      runs_.pop_back();
    if (!runs_.empty())
      runs_.back().page_count = num_pages - runs_.back().page_begin;
    TOSS_ASSERT(canonical());
  }

  bool operator==(const PageRuns&) const = default;

 private:
  /// Appends `page_count` pages at `value` to `runs`, extending the last
  /// run on a tie, so the list stays maximal.
  static void push(std::vector<PageRun<V>>& runs, u64 page_count, V value) {
    if (page_count == 0) return;
    if (!runs.empty() && runs.back().value == value) {
      runs.back().page_count += page_count;
      return;
    }
    const u64 begin = runs.empty() ? 0 : runs.back().page_end();
    runs.push_back(PageRun<V>{begin, page_count, value});
  }

  /// Index of the run holding `page` (< num_pages()).
  size_t run_of(u64 page) const {
    const auto after = std::upper_bound(
        runs_.begin(), runs_.end(), page,
        [](u64 p, const PageRun<V>& r) { return p < r.page_begin; });
    return static_cast<size_t>(std::prev(after) - runs_.begin());
  }

  /// Index of the run that starts at `page` (<= num_pages()), splitting
  /// the run that holds it if need be; runs_.size() at the end.
  size_t split_at(u64 page) {
    if (page == num_pages()) return runs_.size();
    const size_t i = run_of(page);
    PageRun<V>& r = runs_[i];
    if (r.page_begin == page) return i;
    const PageRun<V> right{page, r.page_end() - page, r.value};
    r.page_count = page - r.page_begin;
    runs_.insert(runs_.begin() + static_cast<std::ptrdiff_t>(i + 1), right);
    return i + 1;
  }

  /// Merges equal neighbours among runs [first, last) (first < last).
  void coalesce(size_t first, size_t last) {
    size_t out = first;
    for (size_t i = first + 1; i < last; ++i) {
      if (runs_[i].value == runs_[out].value)
        runs_[out].page_count += runs_[i].page_count;
      else
        runs_[++out] = runs_[i];
    }
    runs_.erase(runs_.begin() + static_cast<std::ptrdiff_t>(out + 1),
                runs_.begin() + static_cast<std::ptrdiff_t>(last));
  }

  /// Runs are nonempty, tile [0, num_pages) and differ from their
  /// neighbours.
  bool canonical() const {
    u64 end = 0;
    for (size_t i = 0; i < runs_.size(); ++i) {
      const PageRun<V>& r = runs_[i];
      if (r.page_begin != end || r.page_count == 0) return false;
      if (i > 0 && runs_[i - 1].value == r.value) return false;
      end = r.page_end();
    }
    return true;
  }

  std::vector<PageRun<V>> runs_;
};

}  // namespace toss
