// Every run list against a dense per-page reference. PageRuns<V> holds
// guest contents (PageVersions), tier placements (PagePlacement) and
// working sets (WorkingSet) as maximal runs; here random mutator sequences
// are replayed on a plain per-page array, and the readers built on the
// runs (per-rank counts, Step IV's layout, the working-set helpers and
// Step III's placement) are checked against per-page walks.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/optimizer.hpp"
#include "damon/monitor.hpp"
#include "trace/working_set.hpp"
#include "util/rng.hpp"
#include "vmm/tiered_snapshot.hpp"
#include "workloads/registry.hpp"

namespace toss {
namespace {

template <class V>
std::vector<V> expand(const std::vector<PageRun<V>>& runs) {
  std::vector<V> dense;
  for (const PageRun<V>& r : runs)
    dense.insert(dense.end(), r.page_count, r.value);
  return dense;
}

/// Runs are nonempty, tile [0, num_pages) and differ from their
/// neighbours.
template <class V>
void expect_canonical(const std::vector<PageRun<V>>& runs, u64 num_pages) {
  u64 end = 0;
  for (size_t i = 0; i < runs.size(); ++i) {
    ASSERT_EQ(runs[i].page_begin, end) << "run " << i;
    ASSERT_GT(runs[i].page_count, 0u) << "run " << i;
    if (i > 0) {
      ASSERT_FALSE(runs[i - 1].value == runs[i].value) << "run " << i;
    }
    end = runs[i].page_end();
  }
  ASSERT_EQ(end, num_pages);
}

/// A slice [first, first + count) of [0, num_pages): inside runs, over
/// whole runs, from page 0, to the last page, or empty. Slices are short
/// next to the range, so the list keeps tens of runs.
template <class V>
std::pair<u64, u64> draw_range(const std::vector<PageRun<V>>& runs,
                               u64 num_pages, Rng& rng) {
  const u64 count = 1 + rng.next_below(std::min<u64>(300, num_pages));
  switch (rng.next_below(6)) {
    case 0: {
      const size_t i = rng.next_below(runs.size());
      const size_t j = i + rng.next_below(std::min<size_t>(3, runs.size() - i));
      return {runs[i].page_begin, runs[j].page_end() - runs[i].page_begin};
    }
    case 1:
      return {0, count};
    case 2:
      return {num_pages - count, count};
    case 3:
      return {rng.next_below(num_pages + 1), 0};
    default: {
      const u64 first = rng.next_below(num_pages);
      return {first, std::min(count, num_pages - first)};
    }
  }
}

/// for_each_in over random slices yields the dense slice, in pieces.
template <class V, class Runs>
void expect_slices_match(const Runs& runs, const std::vector<V>& dense,
                         Rng& rng) {
  for (int s = 0; s < 4; ++s) {
    const u64 first = rng.next_below(dense.size() + 1);
    const u64 count = rng.next_below(dense.size() - first + 1);
    std::vector<V> got;
    runs.for_each_in(first, count, [&](V value, u64 pages) {
      EXPECT_GT(pages, 0u);
      got.insert(got.end(), pages, value);
    });
    EXPECT_TRUE(std::equal(got.begin(), got.end(),
                           dense.begin() + static_cast<std::ptrdiff_t>(first),
                           dense.begin() +
                               static_cast<std::ptrdiff_t>(first + count)))
        << first << "+" << count;
  }
}

TEST(PageRunsDense, RandomMutatorsMatchADenseArray) {
  Rng rng(27);
  for (int list = 0; list < 4; ++list) {
    SCOPED_TRACE("list " + std::to_string(list));
    const u64 n = 1000 + rng.next_below(4001);
    PageVersions runs(n, 0);
    std::vector<u32> dense(n, 0);
    for (int step = 0; step < 150; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const u64 pages = dense.size();
      const auto [first, count] = draw_range(runs.runs(), pages, rng);
      // Few distinct values, so ranges often meet equal neighbours.
      const u32 value = static_cast<u32>(rng.next_below(4));
      switch (rng.next_below(7)) {
        case 0:
        case 1:
          runs.assign(first, count, value);
          std::fill_n(dense.begin() + static_cast<std::ptrdiff_t>(first),
                      count, value);
          break;
        case 2: {
          runs.update(first, count, [](u32 v) { return v + 1; });
          for (u64 p = first; p < first + count; ++p) ++dense[p];
          break;
        }
        case 3: {
          // Re-assigning a run its own value leaves the list as it is.
          const PageRun<u32> r =
              runs.runs()[rng.next_below(runs.runs().size())];
          const PageVersions before = runs;
          runs.assign(r.page_begin, r.page_count, r.value);
          EXPECT_EQ(runs, before);
          break;
        }
        case 4:
          if (pages < 5000) {
            const u64 grow = rng.next_below(400);
            runs.append(grow, value);
            dense.insert(dense.end(), grow, value);
          }
          break;
        case 5:
          if (pages < 5000) {
            // A slice of another list, equal values at the seam and all.
            PageVersions source(700, value);
            source.assign(rng.next_below(600), rng.next_below(100), value + 1);
            const u64 from = rng.next_below(700);
            const u64 take = rng.next_below(700 - from + 1);
            runs.append(source, from, take);
            const std::vector<u32> src = expand(source.runs());
            const auto at = [&](u64 p) {
              return src.begin() + static_cast<std::ptrdiff_t>(p);
            };
            dense.insert(dense.end(), at(from), at(from + take));
          }
          break;
        default:
          if (pages > 1000) {
            const u64 keep = 1000 + rng.next_below(pages - 1000);
            runs.truncate(keep);
            dense.resize(keep);
          }
          break;
      }
      expect_canonical(runs.runs(), dense.size());
      ASSERT_EQ(expand(runs.runs()), dense);
      for (u64 p = 0; p < dense.size(); ++p)
        ASSERT_EQ(runs.at(p), dense[p]) << p;
      expect_slices_match(runs, dense, rng);
    }
  }
}

TEST(PageRunsDense, UpdateKeepsTheVersionWrap) {
  PageVersions runs(10, 0xffffffffu);
  runs.update(2, 3, [](u32 v) { return v + 1; });
  EXPECT_EQ(runs.runs(), (std::vector<PageRun<u32>>{{0, 2, 0xffffffffu},
                                                    {2, 3, 0},
                                                    {5, 5, 0xffffffffu}}));
}

/// The dense reference's per-rank counts and the fractions derived from
/// them, as PagePlacement defines them.
struct DenseCounts {
  std::vector<u64> per_rank;
  double slow = 0;
  std::vector<double> deep;
};

DenseCounts dense_counts(const std::vector<Tier>& dense, size_t ranks) {
  DenseCounts c;
  c.per_rank.assign(ranks, 0);
  for (const Tier t : dense) ++c.per_rank[tier_rank(t)];
  const double n = static_cast<double>(dense.size());
  c.slow = static_cast<double>(dense.size() - c.per_rank[0]) / n;
  for (size_t rank = 1; rank < ranks; ++rank)
    c.deep.push_back(static_cast<double>(c.per_rank[rank]) / n);
  return c;
}

TEST(PlacementRuns, RandomSetRangesMatchADenseArray) {
  Rng rng(2727);
  for (const size_t ranks : {2, 3, 4}) {
    SCOPED_TRACE(std::to_string(ranks) + " ranks");
    const u64 n = 1000 + rng.next_below(4001);
    PagePlacement placement(n, tier_index(0));
    std::vector<Tier> dense(n, tier_index(0));
    for (int step = 0; step < 200; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      if (rng.next_below(6) == 0) {
        // Re-assigning a run its own tier must not split it.
        const PageRun<Tier> r =
            placement.runs()[rng.next_below(placement.runs().size())];
        const PagePlacement before = placement;
        placement.set_range(r.page_begin, r.page_count, r.value);
        EXPECT_EQ(placement, before);
      } else {
        const auto [first, count] = draw_range(placement.runs(), n, rng);
        const Tier t = tier_index(rng.next_below(ranks));
        placement.set_range(first, count, t);
        std::fill_n(dense.begin() + static_cast<std::ptrdiff_t>(first), count,
                    t);
      }
      expect_canonical(placement.runs(), n);
      ASSERT_EQ(expand(placement.runs()), dense);
      for (u64 p = 0; p < n; ++p)
        ASSERT_EQ(placement.rank_of(p), tier_rank(dense[p])) << p;
      expect_slices_match(placement, dense, rng);
      const DenseCounts want = dense_counts(dense, ranks);
      EXPECT_EQ(placement.pages_per_rank(ranks), want.per_rank);
      EXPECT_EQ(placement.slow_fraction(), want.slow);
      EXPECT_EQ(placement.deep_fractions(ranks), want.deep);
    }
  }
}

TEST(PlacementRuns, OneMappingPerRun) {
  PagePlacement p(10, tier_index(0));
  EXPECT_EQ(p.runs().size(), 1u);
  p.set_range(2, 3, tier_index(1));
  EXPECT_EQ(p.runs().size(), 3u);  // fast, slow, fast
  p.set_range(0, 2, tier_index(1));
  EXPECT_EQ(p.runs().size(), 2u);  // slow, fast
  EXPECT_EQ(PagePlacement{}.runs().size(), 0u);
}

/// FNV-1a over each page's version, low byte first: the per-page loop a
/// layout entry's checksum must equal.
u64 dense_checksum(const std::vector<u32>& dense, u64 first, u64 count) {
  u64 h = 0xcbf29ce484222325ULL;
  for (u64 p = first; p < first + count; ++p) {
    for (int b = 0; b < 4; ++b) {
      h ^= (dense[p] >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

TEST(PlacementRuns, BuildMatchesAPageWalkOverTheDensePlacement) {
  Rng rng(272727);
  for (const size_t ranks : {2, 3, 4}) {
    SCOPED_TRACE(std::to_string(ranks) + " ranks");
    const u64 n = 1000 + rng.next_below(4001);
    // Guest contents with runs of a few hundred pages, and a placement
    // whose runs cut them anywhere.
    std::vector<u32> versions;
    PagePlacement placement(n, tier_index(0));
    std::vector<Tier> dense(n, tier_index(0));
    while (versions.size() < n) {
      const u64 len =
          std::min<u64>(1 + rng.next_below(400), n - versions.size());
      versions.insert(versions.end(), len,
                      static_cast<u32>(rng.next_below(5)));
    }
    for (int k = 0; k < 30; ++k) {
      const auto [first, count] = draw_range(placement.runs(), n, rng);
      const Tier t = tier_index(rng.next_below(ranks));
      placement.set_range(first, count, t);
      std::fill_n(dense.begin() + static_cast<std::ptrdiff_t>(first), count,
                  t);
    }
    PageVersions contents;
    for (const u32 v : versions) contents.append(1, v);
    const SingleTierSnapshot snap(1, GuestMemory(contents), VmState{});
    std::vector<u64> ids;
    for (size_t r = 0; r < ranks; ++r) ids.push_back(10 + r);
    const TieredSnapshot tiered = TieredSnapshot::build(snap, placement, ids);

    // The page walk: each maximal same-tier stretch is one entry, placed
    // at its tier file's cursor.
    std::vector<LayoutEntry> want;
    std::vector<u64> cursor(ranks, 0);
    for (u64 begin = 0, end = 0; begin < n; begin = end) {
      while (end < n && dense[end] == dense[begin]) ++end;
      LayoutEntry e;
      e.tier = dense[begin];
      e.guest_page = begin;
      e.page_count = end - begin;
      e.file_page = cursor[tier_rank(e.tier)];
      e.checksum = dense_checksum(versions, begin, end - begin);
      cursor[tier_rank(e.tier)] += e.page_count;
      want.push_back(e);
    }
    const std::vector<LayoutEntry>& got = tiered.layout().entries();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE("entry " + std::to_string(i));
      EXPECT_EQ(got[i].tier, want[i].tier);
      EXPECT_EQ(got[i].guest_page, want[i].guest_page);
      EXPECT_EQ(got[i].page_count, want[i].page_count);
      EXPECT_EQ(got[i].file_page, want[i].file_page);
      EXPECT_EQ(got[i].checksum, want[i].checksum);
    }
    EXPECT_EQ(tiered.materialize(), snap.materialize());
    EXPECT_EQ(tiered.verify(), std::nullopt);
  }
}

// ---------------------------------------------------------------------------
// Working sets and Step III on the Table-I functions.
// ---------------------------------------------------------------------------

using DenseSet = std::vector<char>;

/// userfaultfd(): every page of every burst.
DenseSet dense_uffd(const BurstTrace& trace, u64 num_pages) {
  DenseSet touched(num_pages, 0);
  for (const AccessBurst& b : trace.bursts())
    std::fill_n(touched.begin() + static_cast<std::ptrdiff_t>(b.page_begin),
                b.page_count, 1);
  return touched;
}

/// mincore(): a fault on an uncached page caches `readahead` pages from
/// it on; the set is every cached page inside the guest.
DenseSet dense_mincore(const BurstTrace& trace, u64 num_pages,
                       u64 readahead) {
  DenseSet cached(num_pages, 0);
  for (const AccessBurst& b : trace.bursts())
    for (u64 p = b.page_begin; p < b.page_end(); ++p)
      if (!cached[p])
        std::fill(cached.begin() + static_cast<std::ptrdiff_t>(p),
                  cached.begin() + static_cast<std::ptrdiff_t>(
                                       std::min(p + readahead, num_pages)),
                  1);
  return cached;
}

std::vector<std::pair<u64, u64>> dense_ranges(const DenseSet& set) {
  std::vector<std::pair<u64, u64>> ranges;
  for (u64 p = 0, end = 0; p < set.size(); p = end) {
    end = p + 1;
    if (!set[p]) continue;
    while (end < set.size() && set[end]) ++end;
    ranges.emplace_back(p, end - p);
  }
  return ranges;
}

TEST(WorkingSetRuns, TableOneSetsMatchADenseReference) {
  const FunctionRegistry reg = FunctionRegistry::table1();
  for (const FunctionModel& m : reg.models()) {
    SCOPED_TRACE(m.name());
    const u64 n = m.guest_pages();
    std::vector<WorkingSet> sets;
    std::vector<DenseSet> dense;
    for (int input = 0; input < kNumInputs; ++input) {
      const Invocation inv = m.invoke(input, 27);
      sets.push_back(uffd_working_set(inv.trace, n));
      dense.push_back(dense_uffd(inv.trace, n));
      sets.push_back(mincore_working_set(inv.trace, n, 32));
      dense.push_back(dense_mincore(inv.trace, n, 32));
    }
    for (size_t i = 0; i < sets.size(); ++i) {
      SCOPED_TRACE("set " + std::to_string(i));
      EXPECT_EQ(sets[i].num_pages(), n);
      EXPECT_EQ(sets[i].touched_ranges(), dense_ranges(dense[i]));
      const auto touched = std::count(dense[i].begin(), dense[i].end(), 1);
      EXPECT_EQ(sets[i].size_pages(), static_cast<u64>(touched));
      // Every pair, both directions: uffd against mincore of one input,
      // and one input's set against another's.
      for (size_t j = 0; j < sets.size(); ++j) {
        u64 missing = 0;
        for (u64 p = 0; p < n; ++p) missing += dense[j][p] && !dense[i][p];
        EXPECT_EQ(sets[i].missing_from(sets[j]), missing) << "from " << j;
      }
    }
  }
}

TEST(PlacementRuns, StepThreePlacesZeroRegionsAndBinsPerPage) {
  const FunctionRegistry reg = FunctionRegistry::table1();
  const SystemConfig ladders[] = {SystemConfig::paper_default(),
                                  SystemConfig::cxl_host(),
                                  SystemConfig::nvme_host()};
  for (const FunctionModel& m : reg.models()) {
    PageAccessCounts unified(m.guest_pages());
    for (int input = 0; input < kNumInputs; ++input)
      unified.merge_max(PageAccessCounts::from_trace(
          m.invoke(input, 2700).trace, m.guest_pages()));
    unified.scale(DamonConfig{}.count_scale);
    const Invocation rep = m.invoke(kNumInputs - 1, 2701);
    const TieringOptions options;
    const PackedPattern packed = pack_pattern(unified, options.bin_count);
    for (const SystemConfig& cfg : ladders) {
      const size_t ranks = cfg.tier_count();
      SCOPED_TRACE(m.name() + " on " + std::to_string(ranks) + " ranks");
      const TieringDecision d = analyze_pattern(cfg, unified, rep, options);
      ASSERT_EQ(d.bin_rank.size(), packed.bins.size());
      std::vector<Tier> want(m.guest_pages(), tier_index(0));
      const auto place = [&](const Region& r, size_t rank) {
        std::fill_n(want.begin() + static_cast<std::ptrdiff_t>(r.page_begin),
                    r.page_count, tier_index(rank));
      };
      for (const Region& r : packed.zero_regions) place(r, ranks - 1);
      for (size_t i = 0; i < packed.bins.size(); ++i)
        for (const Region& r : packed.bins[i].regions) place(r, d.bin_rank[i]);
      expect_canonical(d.placement.runs(), m.guest_pages());
      EXPECT_EQ(expand(d.placement.runs()), want);
      EXPECT_EQ(d.placement.pages_per_rank(ranks),
                dense_counts(want, ranks).per_rank);
    }
  }
}

}  // namespace
}  // namespace toss
