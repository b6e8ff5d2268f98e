// Guest contents as version runs against dense per-page references.
// PageVersions holds the maximal runs of equal version, and the checksums
// fold each run in closed form. Here the fold is checked against the
// per-page FNV-1a loop on run lengths and versions around the low byte's
// cycle, and the artifact path (Step IV build, verify, damage, restore,
// apply_writes) is checked on runs thousands of pages long, cut mid-way by
// layout entries and restore mappings.
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "vmm/microvm.hpp"
#include "vmm/snapshot.hpp"
#include "vmm/snapshot_store.hpp"
#include "vmm/tiered_snapshot.hpp"

namespace toss {
namespace {

using Dense = std::vector<u32>;

/// The per-page loop: FNV-1a over each version's four bytes, low byte
/// first.
u64 dense_checksum(const Dense& dense, u64 first_page, u64 page_count) {
  u64 h = 0xcbf29ce484222325ULL;
  for (u64 p = first_page; p < first_page + page_count; ++p) {
    for (int b = 0; b < 4; ++b) {
      h ^= (dense[p] >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

Dense expand(const PageVersions& versions) {
  Dense dense;
  for (const PageRun<u32>& r : versions.runs())
    dense.insert(dense.end(), r.page_count, r.value);
  return dense;
}

PageVersions from_dense(const Dense& dense) {
  PageVersions versions;
  for (const u32 v : dense) versions.append(1, v);
  return versions;
}

/// Run lengths on both sides of the low byte's cycle (at most 256 pages),
/// and long enough for several squarings.
constexpr u64 kLengths[] = {1, 255, 256, 257, 4097, u64{1} << 18};
/// Zero (the multiply-only fold), single-byte and repeated-byte versions.
constexpr u32 kVersions[] = {0, 1, 0xff, 0x100, 0x01010101};

u32 draw_version(Rng& rng) {
  const u64 k = rng.next_below(std::size(kVersions) + 2);
  return k < std::size(kVersions) ? kVersions[k] : static_cast<u32>(rng.next());
}

u64 draw_length(Rng& rng) {
  const u64 k = rng.next_below(std::size(kLengths) + 1);
  return k < std::size(kLengths) ? kLengths[k] : 1 + rng.next_below(600);
}

TEST(RunFold, EveryLengthAndVersionMatchesThePerPageLoop) {
  // A random prefix run sets a random hash, and so a random low byte, at
  // the start of the run under test.
  Rng rng(26);
  for (const u64 length : kLengths) {
    std::vector<u32> versions(std::begin(kVersions), std::end(kVersions));
    for (int k = 0; k < 3; ++k) versions.push_back(static_cast<u32>(rng.next()));
    for (const u32 version : versions) {
      SCOPED_TRACE(std::to_string(length) + " pages at " +
                   std::to_string(version));
      PageVersions runs;
      const u64 prefix = 1 + rng.next_below(300);
      runs.append(prefix, static_cast<u32>(rng.next()));
      runs.append(length, version);
      const Dense dense = expand(runs);
      EXPECT_EQ(region_checksum(runs, 0, runs.num_pages()),
                dense_checksum(dense, 0, dense.size()));
      EXPECT_EQ(region_checksum(runs, prefix, length),
                dense_checksum(dense, prefix, length));
    }
  }
}

TEST(RunFold, SlicesOfRandomRunListsMatchThePerPageLoop) {
  Rng rng(2626);
  for (int list = 0; list < 12; ++list) {
    SCOPED_TRACE(list);
    PageVersions runs;
    const u64 run_count = 1 + rng.next_below(8);
    for (u64 i = 0; i < run_count; ++i)
      runs.append(draw_length(rng), draw_version(rng));
    const Dense dense = expand(runs);
    const u64 n = runs.num_pages();
    EXPECT_EQ(hash_memory(GuestMemory(runs)), dense_checksum(dense, 0, n));
    // Slices that start and end inside runs, or span a single page.
    for (int slice = 0; slice < 6; ++slice) {
      const u64 first = rng.next_below(n);
      const u64 count = rng.next_below(n - first + 1);
      EXPECT_EQ(region_checksum(runs, first, count),
                dense_checksum(dense, first, count))
          << first << "+" << count;
    }
  }
}

TEST(RunFold, FreshGuestHashesAsThePerPageLoop) {
  constexpr u64 kPages = u64{1} << 18;
  const GuestMemory fresh(bytes_for_pages(kPages));
  EXPECT_EQ(fresh.page_versions().runs().size(), 1u);
  EXPECT_EQ(hash_memory(fresh), dense_checksum(Dense(kPages, 0), 0, kPages));
  EXPECT_EQ(hash_memory(GuestMemory(0)), dense_checksum({}, 0, 0));
}

/// A workload write: every page of the range up one version, wrapping.
void bump(PageVersions& versions, u64 first_page, u64 page_count) {
  versions.update(first_page, page_count, [](u32 v) { return v + 1; });
}

TEST(PageVersionsRuns, MutatorsKeepRunsMaximal) {
  PageVersions runs;
  runs.append(10, 1);
  runs.append(10, 2);
  runs.append(5, 2);  // extends the last run
  ASSERT_EQ(runs.runs().size(), 2u);
  EXPECT_EQ(runs.at(19), 2u);
  // A bump that makes a run equal to its neighbour merges the two.
  bump(runs, 0, 10);
  ASSERT_EQ(runs.runs().size(), 1u);
  EXPECT_EQ(runs.runs().front(), (PageRun<u32>{0, 25, 2}));
  // A bump in the middle of a run splits it in three.
  bump(runs, 3, 4);
  EXPECT_EQ(runs, from_dense({2, 2, 2, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2,
                              2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2}));
  // Versions wrap: the top version bumps to zero and joins a zero run.
  PageVersions wrap;
  wrap.append(4, 0);
  wrap.append(4, 0xffffffffu);
  bump(wrap, 4, 4);
  EXPECT_EQ(wrap, PageVersions(8, 0));
  // Truncation inside the last run shortens it; at a run boundary it
  // drops the run.
  wrap.truncate(5);
  EXPECT_EQ(wrap, PageVersions(5, 0));
  runs.truncate(7);
  EXPECT_EQ(runs, from_dense({2, 2, 2, 3, 3, 3, 3}));
  runs.truncate(4);
  EXPECT_EQ(runs, from_dense({2, 2, 2, 3}));
}

// ---------------------------------------------------------------------------
// The artifact path on long runs.
// ---------------------------------------------------------------------------

class LongRunsTest : public ::testing::Test {
 protected:
  static constexpr u64 kPages = 6000;

  /// Runs of 1500, 1, 2499 (zero) and 2000 pages.
  static PageVersions long_runs() {
    PageVersions runs;
    runs.append(1500, 7);
    runs.append(1, 8);
    runs.append(2499, 0);
    runs.append(2000, 0x01010101);
    return runs;
  }

  SystemConfig cfg = SystemConfig::paper_default();
  SnapshotStore store{cfg};
  GuestMemory mem{long_runs()};
  Dense dense = expand(long_runs());
  SingleTierSnapshot snap{1, mem, VmState{}};

  /// Fast except [400, 1700) and [3000, 3500): every entry boundary
  /// falls inside a run.
  static PagePlacement cut_placement() {
    PagePlacement placement(kPages, tier_index(0));
    placement.set_range(400, 1300, tier_index(1));
    placement.set_range(3000, 500, tier_index(1));
    return placement;
  }
};

TEST_F(LongRunsTest, BuildCutsRunsAndMaterializesTheSnapshot) {
  const TieredSnapshot tiered =
      TieredSnapshot::build(snap, cut_placement(), {2, 3});
  // One layout entry per placement run.
  std::vector<PageRun<Tier>> entries;
  for (const LayoutEntry& e : tiered.layout().entries())
    entries.push_back(PageRun<Tier>{e.guest_page, e.page_count, e.tier});
  EXPECT_EQ(entries, cut_placement().runs());
  EXPECT_EQ(tiered.layout().entry_count(), 5u);
  EXPECT_EQ(tiered.materialize(), mem);
  EXPECT_EQ(tiered.verify(), std::nullopt);
  for (const LayoutEntry& e : tiered.layout().entries()) {
    const size_t rank = tier_rank(e.tier);
    // The entry's slice of its tier file holds the guest's pages, and its
    // checksum is the per-page loop over them.
    EXPECT_EQ(e.checksum, dense_checksum(dense, e.guest_page, e.page_count));
    for (u64 i = 0; i < e.page_count; i += 97)
      EXPECT_EQ(tiered.tier_page_version(rank, e.file_page + i),
                dense[e.guest_page + i]);
  }
  // Each tier file is the concatenation of its entries' slices, as
  // maximal runs: slices that meet at an equal version (zero on both
  // sides of each file's second seam) share one run.
  for (size_t rank = 0; rank < 2; ++rank) {
    Dense file;
    for (const LayoutEntry& e : tiered.layout().entries())
      if (tier_rank(e.tier) == rank)
        file.insert(file.end(), dense.begin() + e.guest_page,
                    dense.begin() + e.guest_page_end());
    EXPECT_EQ(tiered.tier_file(rank), from_dense(file)) << rank;
  }
  EXPECT_EQ(tiered.tier_pages(1), 1800u);
}

TEST_F(LongRunsTest, BitrotAnywhereInALongRunIsCaught) {
  const TieredSnapshot tiered =
      TieredSnapshot::build(snap, cut_placement(), {2, 3});
  // Guest pages 3500..5999 are the fast file's last entry (entry 4): 500
  // zero pages, then the 2000-page run of 0x01010101.
  const LayoutEntry& last = tiered.layout().entries().back();
  ASSERT_EQ(tiered.layout().entry_count(), 5u);
  ASSERT_EQ(tier_rank(last.tier), 0u);
  ASSERT_EQ(last.guest_page, 3500u);
  const u64 run_first = last.file_page + 500;
  const u64 run_last = last.file_page + last.page_count - 1;
  for (const u64 file_page :
       {run_first, (run_first + run_last) / 2, run_last}) {
    SCOPED_TRACE(file_page);
    TieredSnapshot rotted = tiered;
    rotted.corrupt_fast_page(file_page);
    EXPECT_FALSE(rotted.sealed());
    const auto violation = rotted.verify();
    ASSERT_TRUE(violation.has_value());
    EXPECT_EQ(violation->rfind("entry 4: checksum mismatch", 0), 0u)
        << *violation;
    // Exactly one page changed, by one version.
    Dense want = dense;
    ++want[4000 + (file_page - run_first)];
    EXPECT_EQ(rotted.materialize(), GuestMemory(from_dense(want)));
  }
}

TEST_F(LongRunsTest, TruncationShortensTheLongLastRun) {
  TieredSnapshot tiered = TieredSnapshot::build(snap, cut_placement(), {2, 3});
  const u64 fast = tiered.fast_pages();
  const PageRun<u32> last = tiered.tier_file(0).runs().back();
  tiered.truncate_fast_file();
  EXPECT_FALSE(tiered.sealed());
  EXPECT_EQ(tiered.fast_pages(), fast - 1);
  EXPECT_EQ(tiered.tier_file(0).runs().back(),
            (PageRun<u32>{last.page_begin, last.page_count - 1, last.value}));
  const auto violation = tiered.verify();
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("tier file truncated"), std::string::npos)
      << *violation;

  // A restore that maps the truncated file past its end fails loudly.
  const u64 fast_id = tiered.fast_file_id();
  store.put_tiered(std::move(tiered));
  RestorePlan plan;
  plan.guest_pages = kPages;
  plan.mappings.push_back(
      RestoreMapping{0, fast, tier_index(0), fast_id, 0, false});
  MicroVm vm(cfg, store);
  try {
    vm.restore(plan);
    ADD_FAILURE() << "restore over a truncated tier file succeeded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kSnapshotCorrupted);
    EXPECT_NE(std::string(e.what()).find("overruns tier file"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(LongRunsTest, OverlappingWritesMatchTheDenseReference) {
  BurstTrace trace;
  // Overlapping writers, a reader inside them, a writer over the whole
  // guest and one over the last page.
  trace.push_back(AccessBurst{100, 2000, 500, Pattern::kSequential, 0.5, 0.0});
  trace.push_back(AccessBurst{1400, 300, 50, Pattern::kRandom, 0.2, 0.9});
  trace.push_back(AccessBurst{1450, 100, 50, Pattern::kRandom, 0.0, 0.0});
  trace.push_back(AccessBurst{0, kPages, 10, Pattern::kSequential, 1.0, 0.0});
  trace.push_back(AccessBurst{kPages - 1, 1, 1, Pattern::kRandom, 0.1, 0.0});
  trace.push_back(AccessBurst{1400, 300, 50, Pattern::kRandom, 0.2, 0.9});

  Dense want(kPages, 0);
  for (const AccessBurst& b : trace.bursts())
    if (b.write_fraction > 0.0)
      for (u64 p = b.page_begin; p < b.page_end(); ++p) ++want[p];

  MicroVm vm(cfg, store);
  vm.boot(bytes_for_pages(kPages), VmState{});
  vm.apply_writes(trace);
  EXPECT_EQ(vm.memory(), GuestMemory(from_dense(want)));

  // Writes land on restored contents too, runs and all.
  const u64 snap_id = store.put_single_tier(mem, VmState{});
  RestorePlan plan;
  plan.guest_pages = kPages;
  plan.mappings.push_back(
      RestoreMapping{0, kPages, tier_index(0), snap_id, 0, false});
  vm.restore(plan);
  vm.apply_writes(trace);
  for (u64 p = 0; p < kPages; ++p) want[p] += dense[p];
  EXPECT_EQ(vm.memory(), GuestMemory(from_dense(want)));
}

TEST_F(LongRunsTest, RestoreMappingsThatSplitRunsBuildTheDenseImage) {
  const u64 snap_id = store.put_single_tier(mem, VmState{});
  // Holes, an anonymous mapping, and file slices that land at other guest
  // offsets and cut runs on both sides.
  RestorePlan plan;
  plan.guest_pages = kPages;
  plan.mappings = {
      RestoreMapping{50, 500, tier_index(0), snap_id, 1200, false},
      RestoreMapping{550, 100, tier_index(0), 0, 0, false},
      RestoreMapping{700, 2900, tier_index(0), snap_id, 1499, false},
      RestoreMapping{3600, 2000, tier_index(1), snap_id, 3999, true},
  };
  Dense want(kPages, 0);
  for (const RestoreMapping& m : plan.mappings)
    if (m.file_id != 0)
      for (u64 i = 0; i < m.page_count; ++i)
        want[m.guest_page + i] = dense[m.file_page + i];

  MicroVm vm(cfg, store);
  vm.restore(plan);
  EXPECT_EQ(vm.memory(), GuestMemory(from_dense(want)));
  EXPECT_EQ(hash_memory(vm.memory()), dense_checksum(want, 0, kPages));

  // The tiered artifact's own layout restores the snapshot exactly.
  const u64 fast_id = store.allocate_file_id();
  const u64 slow_id = store.allocate_file_id();
  store.put_tiered(TieredSnapshot::build(*store.get_single_tier(snap_id),
                                         cut_placement(), {fast_id, slow_id}));
  const TieredSnapshot* tiered = store.get_tiered(fast_id);
  RestorePlan tiered_plan;
  tiered_plan.guest_pages = kPages;
  for (const LayoutEntry& e : tiered->layout().entries())
    tiered_plan.mappings.push_back(RestoreMapping{
        e.guest_page, e.page_count, e.tier,
        tiered->file_id(tier_rank(e.tier)), e.file_page,
        tier_rank(e.tier) != 0});
  vm.restore(tiered_plan);
  EXPECT_EQ(vm.memory(), mem);
  EXPECT_EQ(hash_memory_against(vm.memory(), snap.page_versions(),
                                snap.content_hash()),
            dense_checksum(dense, 0, kPages));
}

}  // namespace
}  // namespace toss
