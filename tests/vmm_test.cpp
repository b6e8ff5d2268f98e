// Tests for the microVM substrate: snapshots, layout files, tiered
// snapshots, the snapshot store and the MicroVm fault/timing behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "baseline/faasnap.hpp"
#include "baseline/reap.hpp"
#include "baseline/vanilla.hpp"
#include "core/tierer.hpp"
#include "util/rng.hpp"
#include "vmm/layout.hpp"
#include "vmm/microvm.hpp"
#include "vmm/snapshot.hpp"
#include "vmm/snapshot_store.hpp"
#include "vmm/tiered_snapshot.hpp"
#include "vmm/vm_state.hpp"
#include "workloads/registry.hpp"

namespace toss {
namespace {

/// A guest whose page versions are `dense`, one per page: one append per
/// stretch of equal versions.
GuestMemory from_dense(const std::vector<u32>& dense) {
  PageVersions contents;
  for (u64 p = 0, q = 0; p < dense.size(); p = q) {
    while (q < dense.size() && dense[q] == dense[p]) ++q;
    contents.append(q - p, dense[p]);
  }
  return GuestMemory(std::move(contents));
}

/// The artifact's layout entries as (guest page, page count, tier) runs.
std::vector<PageRun<Tier>> layout_runs(const TieredSnapshot& tiered) {
  std::vector<PageRun<Tier>> runs;
  for (const LayoutEntry& e : tiered.layout().entries())
    runs.push_back(PageRun<Tier>{e.guest_page, e.page_count, e.tier});
  return runs;
}

/// Every page at its own version: runs one page long.
GuestMemory patterned_memory(u64 pages) {
  std::vector<u32> dense(pages);
  for (u64 p = 0; p < pages; ++p) dense[p] = static_cast<u32>(p * 2654435761u);
  return from_dense(dense);
}

TEST(SingleTierSnapshot, MaterializeMatchesSource) {
  const GuestMemory mem = patterned_memory(64);
  SingleTierSnapshot snap(1, mem, VmState{});
  EXPECT_EQ(snap.num_pages(), 64u);
  EXPECT_EQ(snap.materialize(), mem);
}

TEST(Oracle, ContentHashIsTheHashOfTheMaterializedImage) {
  const SingleTierSnapshot snap(1, patterned_memory(96), VmState{});
  EXPECT_EQ(snap.content_hash(), hash_memory(snap.materialize()));
  EXPECT_EQ(SingleTierSnapshot().content_hash(), hash_memory(GuestMemory(0)));
}

TEST(Oracle, ComparesVersionsFirstAndHashesOnlyAMismatch) {
  const SingleTierSnapshot authority(1, patterned_memory(96), VmState{});
  const auto observed_hash = [&](const GuestMemory& guest) {
    return hash_memory_against(guest, authority.page_versions(),
                               authority.content_hash());
  };
  // A faithful guest reports the authority's hash.
  const GuestMemory faithful = authority.materialize();
  EXPECT_EQ(observed_hash(faithful), hash_memory(faithful));
  // A guest whose versions differ reports its own hash, which the oracle
  // then sees differ from the expected one.
  GuestMemory drifted = authority.materialize();
  drifted.bump(17, 1);
  EXPECT_EQ(observed_hash(drifted), hash_memory(drifted));
  EXPECT_NE(observed_hash(drifted), authority.content_hash());
  const GuestMemory shorter = patterned_memory(95);
  EXPECT_EQ(observed_hash(shorter), hash_memory(shorter));
  EXPECT_NE(observed_hash(shorter), authority.content_hash());
  // The two branches are really taken: the supplied hash comes back only
  // for equal contents.
  EXPECT_EQ(hash_memory_against(faithful, authority.page_versions(), 42), 42u);
  EXPECT_EQ(hash_memory_against(drifted, authority.page_versions(), 42),
            hash_memory(drifted));
}

TEST(LayoutFile, ValidityRules) {
  // Valid: fast at 0..3, slow at 4..7, fast continues at 8..9.
  MemoryLayoutFile ok(10, {{tier_index(0), 0, 0, 4},
                           {tier_index(1), 0, 4, 4},
                           {tier_index(0), 4, 8, 2}});
  EXPECT_EQ(validate_layout(ok), std::nullopt);
  EXPECT_EQ(ok.entries_in(tier_index(0)), 2u);
  EXPECT_EQ(ok.pages_in(tier_index(1)), 4u);
  EXPECT_DOUBLE_EQ(ok.slow_fraction(), 0.4);

  // Guest gap.
  EXPECT_NE(validate_layout(MemoryLayoutFile(10, {{tier_index(0), 0, 0, 4},
                                                  {tier_index(1), 0, 5, 5}})),
            std::nullopt);
  // File offsets must be contiguous per tier.
  EXPECT_NE(validate_layout(MemoryLayoutFile(8, {{tier_index(0), 0, 0, 4},
                                                 {tier_index(0), 6, 4, 4}})),
            std::nullopt);
  // Incomplete coverage.
  EXPECT_NE(validate_layout(MemoryLayoutFile(10, {{tier_index(0), 0, 0, 4}})),
            std::nullopt);
  // A tier tag at or beyond the recorded ladder depth is invalid.
  EXPECT_NE(validate_layout(MemoryLayoutFile(4, {{tier_index(2), 0, 0, 4}})),
            std::nullopt);
  EXPECT_EQ(validate_layout(MemoryLayoutFile(4, {{tier_index(2), 0, 0, 4}}, 3)),
            std::nullopt);

  // The layout records its ladder depth, and every rank below the fastest
  // counts as offloaded.
  MemoryLayoutFile three(12,
                         {{tier_index(0), 0, 0, 4},
                          {tier_index(1), 0, 4, 4},
                          {tier_index(2), 0, 8, 4}},
                         3);
  EXPECT_EQ(validate_layout(three), std::nullopt);
  EXPECT_EQ(three.tier_count(), 3u);
  EXPECT_EQ(three.pages_in(tier_index(2)), 4u);
  EXPECT_DOUBLE_EQ(three.slow_fraction(), 2.0 / 3.0);
}

class TieredSnapshotTest : public ::testing::Test {
 protected:
  static constexpr u64 kPages = 128;
  GuestMemory mem = patterned_memory(kPages);
  SingleTierSnapshot snap{1, mem, VmState{}};
};

TEST_F(TieredSnapshotTest, BuildPreservesContent) {
  PagePlacement placement(kPages, tier_index(0));
  placement.set_range(10, 30, tier_index(1));
  placement.set_range(64, 64, tier_index(1));
  const TieredSnapshot tiered =
      TieredSnapshot::build(snap, placement, {2, 3});
  EXPECT_EQ(validate_layout(tiered.layout()), std::nullopt);
  EXPECT_EQ(tiered.guest_pages(), kPages);
  EXPECT_EQ(tiered.fast_pages() + tiered.slow_pages(), kPages);
  EXPECT_EQ(tiered.slow_pages(), 94u);
  // The re-assembled image must be bit-identical to the original memory.
  EXPECT_EQ(tiered.materialize(), mem);
}

TEST_F(TieredSnapshotTest, AdjacentSameTierPagesCoalesce) {
  PagePlacement placement(kPages, tier_index(0));
  placement.set_range(0, 64, tier_index(1));
  const TieredSnapshot tiered =
      TieredSnapshot::build(snap, placement, {2, 3});
  // Exactly two mappings: one slow run, one fast run ("Bins Merging").
  EXPECT_EQ(tiered.layout().entry_count(), 2u);
}

TEST_F(TieredSnapshotTest, LayoutEntriesAreThePlacementRuns) {
  PagePlacement placement(kPages, tier_index(0));
  placement.set_range(40, 20, tier_index(1));
  const TieredSnapshot tiered =
      TieredSnapshot::build(snap, placement, {2, 3});
  EXPECT_EQ(layout_runs(tiered), placement.runs());
  EXPECT_EQ(tiered.materialize(), mem);
}

TEST_F(TieredSnapshotTest, ThreeRungBuildMaterializesAndVerifies) {
  // One file per rung: pages spread over a three-rung ladder reassemble
  // bit-identically and pass verification.
  PagePlacement placement(kPages, tier_index(0));
  placement.set_range(32, 32, tier_index(1));
  placement.set_range(64, 64, tier_index(2));
  const TieredSnapshot tiered =
      TieredSnapshot::build(snap, placement, {7, 8, 9});
  EXPECT_EQ(tiered.tier_count(), 3u);
  EXPECT_EQ(tiered.layout().tier_count(), 3u);
  EXPECT_EQ(tiered.tier_pages(0), 32u);
  EXPECT_EQ(tiered.tier_pages(1), 32u);
  EXPECT_EQ(tiered.tier_pages(2), 64u);
  EXPECT_EQ(tiered.slow_pages(), 96u);
  EXPECT_EQ(layout_runs(tiered), placement.runs());
  EXPECT_EQ(tiered.materialize(), mem);
  EXPECT_EQ(tiered.verify(), std::nullopt);
}

TEST_F(TieredSnapshotTest, BuildSealsAndEveryMutatorUnseals) {
  PagePlacement placement(kPages, tier_index(0));
  placement.set_range(32, 64, tier_index(1));
  TieredSnapshot tiered = TieredSnapshot::build(snap, placement, {7, 8});
  EXPECT_TRUE(tiered.sealed());
  EXPECT_EQ(tiered.verify(), std::nullopt);
  // Flipped content keeps the structure intact, so only the checksum pass
  // sees it. Fast file page 40 lies in entry 2 (guest pages 96..127), so
  // entries 0 and 1 must pass that pass first.
  TieredSnapshot rotted = tiered;
  rotted.corrupt_fast_page(40);
  EXPECT_FALSE(rotted.sealed());
  const auto violation = rotted.verify();
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->rfind("entry 2: checksum mismatch", 0), 0u)
      << *violation;
  TieredSnapshot truncated = tiered;
  truncated.truncate_fast_file();
  EXPECT_FALSE(truncated.sealed());
  EXPECT_NE(truncated.verify(), std::nullopt);
  // Out-of-range damage is a no-op and keeps the seal.
  tiered.corrupt_fast_page(10'000);
  EXPECT_TRUE(tiered.sealed());
}

TEST(SnapshotStore, IdsAndLookup) {
  const SystemConfig cfg = SystemConfig::paper_default();
  SnapshotStore store(cfg);
  const GuestMemory mem = patterned_memory(32);
  const u64 id = store.put_single_tier(mem, VmState{});
  ASSERT_NE(store.get_single_tier(id), nullptr);
  EXPECT_EQ(store.get_single_tier(id)->materialize(), mem);
  EXPECT_EQ(store.get_single_tier(id + 999), nullptr);
  EXPECT_NE(store.allocate_file_id(), id);
}

TEST(SnapshotStore, TieredLookupByEitherId) {
  const SystemConfig cfg = SystemConfig::paper_default();
  SnapshotStore store(cfg);
  const GuestMemory mem = patterned_memory(32);
  const u64 sid = store.put_single_tier(mem, VmState{});
  PagePlacement placement(32, tier_index(0));
  placement.set_range(16, 16, tier_index(1));
  const u64 fast_id = store.allocate_file_id();
  const u64 slow_id = store.allocate_file_id();
  store.put_tiered(TieredSnapshot::build(*store.get_single_tier(sid),
                                         placement, {fast_id, slow_id}));
  EXPECT_NE(store.get_tiered(fast_id), nullptr);
  EXPECT_EQ(store.get_tiered(fast_id), store.get_tiered(slow_id));
}

class MicroVmTest : public ::testing::Test {
 protected:
  SystemConfig cfg = SystemConfig::paper_default();
  SnapshotStore store{cfg};

  BurstTrace simple_trace(u64 begin, u64 pages, Pattern pattern,
                          double wf = 0.0) {
    BurstTrace t;
    t.push_back(AccessBurst{begin, pages, pages * 10, pattern, wf, 0.0});
    return t;
  }
};

TEST_F(MicroVmTest, BootThenExecuteAnonymousMinorFaults) {
  MicroVm vm(cfg, store);
  const auto setup = vm.boot(kMiB, VmState{});
  EXPECT_EQ(setup.mappings, 1u);
  EXPECT_GT(setup.setup_ns, 0);
  const auto r = vm.execute(simple_trace(0, 64, Pattern::kSequential), ms(1));
  EXPECT_EQ(r.minor_faults, 64u);   // anonymous zero-fill
  EXPECT_EQ(r.major_faults, 0u);
  EXPECT_EQ(r.touched_pages, 64u);
  EXPECT_GT(r.exec_ns, ms(1));
}

TEST_F(MicroVmTest, SecondTouchNoFault) {
  MicroVm vm(cfg, store);
  vm.boot(kMiB, VmState{});
  vm.execute(simple_trace(0, 64, Pattern::kSequential), ms(1));
  const auto r = vm.execute(simple_trace(0, 64, Pattern::kSequential), ms(1));
  EXPECT_EQ(r.minor_faults, 0u);
  EXPECT_EQ(r.touched_pages, 0u);
}

TEST_F(MicroVmTest, RestoreLazyMajorFaultsFromDisk) {
  // Snapshot 256 pages, restore lazily with a dropped cache: random-pattern
  // touches must major-fault, one disk read each.
  MicroVm vm(cfg, store);
  vm.boot(bytes_for_pages(256), VmState{});
  const u64 snap_id = vm.take_snapshot();

  RestorePlan plan;
  plan.vm_state = VmState{};
  plan.guest_pages = 256;
  plan.mappings.push_back(
      RestoreMapping{0, 256, tier_index(0), snap_id, 0, false});
  store.drop_caches();
  MicroVm vm2(cfg, store);
  vm2.restore(plan);
  const auto r = vm2.execute(simple_trace(0, 64, Pattern::kRandom), ms(1));
  EXPECT_EQ(r.major_faults, 64u);
  EXPECT_EQ(r.disk_pages, 64u);
  EXPECT_GT(r.disk_ns, 0);
}

TEST_F(MicroVmTest, SequentialFaultsBenefitFromReadahead) {
  MicroVm vm(cfg, store);
  vm.boot(bytes_for_pages(256), VmState{});
  const u64 snap_id = vm.take_snapshot();
  RestorePlan plan;
  plan.guest_pages = 256;
  plan.mappings.push_back(
      RestoreMapping{0, 256, tier_index(0), snap_id, 0, false});

  store.drop_caches();
  MicroVm vm2(cfg, store);
  vm2.restore(plan);
  const auto r = vm2.execute(simple_trace(0, 64, Pattern::kSequential), ms(1));
  EXPECT_LT(r.major_faults, 64u);  // readahead converts most to minor
  EXPECT_GT(r.minor_faults, 0u);
}

TEST_F(MicroVmTest, EagerLoadedPagesTakeNoFault) {
  MicroVm vm(cfg, store);
  vm.boot(bytes_for_pages(128), VmState{});
  const u64 snap_id = vm.take_snapshot();
  RestorePlan plan;
  plan.guest_pages = 128;
  plan.mappings.push_back(
      RestoreMapping{0, 128, tier_index(0), snap_id, 0, false});
  plan.eager.push_back(EagerLoad{0, 64, snap_id, 0});
  store.drop_caches();
  MicroVm vm2(cfg, store);
  const auto setup = vm2.restore(plan);
  EXPECT_EQ(setup.eager_pages, 64u);
  EXPECT_GT(setup.eager_load_ns, 0);
  const auto r = vm2.execute(simple_trace(0, 64, Pattern::kRandom), ms(1));
  EXPECT_EQ(r.minor_faults, 0u);
  EXPECT_EQ(r.major_faults, 0u);
}

TEST_F(MicroVmTest, DaxMappingsMinorFaultOnly) {
  MicroVm vm(cfg, store);
  vm.boot(bytes_for_pages(128), VmState{});
  const u64 snap_id = vm.take_snapshot();
  RestorePlan plan;
  plan.guest_pages = 128;
  plan.mappings.push_back(
      RestoreMapping{0, 128, tier_index(1), snap_id, 0, true});
  store.drop_caches();
  MicroVm vm2(cfg, store);
  vm2.restore(plan);
  const auto r = vm2.execute(simple_trace(0, 64, Pattern::kRandom), ms(1));
  EXPECT_EQ(r.major_faults, 0u);
  EXPECT_EQ(r.minor_faults, 64u);
  EXPECT_GT(r.slow_accesses, 0u);
}

TEST_F(MicroVmTest, PagesNoMappingCoversAreAnonymous) {
  MicroVm vm(cfg, store);
  vm.boot(bytes_for_pages(128), VmState{});
  const u64 snap_id = vm.take_snapshot();
  RestorePlan plan;
  plan.guest_pages = 128;
  plan.mappings.push_back(
      RestoreMapping{0, 32, tier_index(0), snap_id, 0, false});
  plan.mappings.push_back(
      RestoreMapping{64, 64, tier_index(0), snap_id, 64, false});
  store.drop_caches();
  MicroVm vm2(cfg, store);
  vm2.restore(plan);
  // The hole [32, 64) precedes a paged mapping but is not backed by it.
  const auto hole = vm2.execute(simple_trace(32, 32, Pattern::kRandom), ms(1));
  EXPECT_EQ(hole.minor_faults, 32u);
  EXPECT_EQ(hole.major_faults, 0u);
  const auto mapped =
      vm2.execute(simple_trace(64, 16, Pattern::kRandom), ms(1));
  EXPECT_EQ(mapped.major_faults, 16u);
}

TEST_F(MicroVmTest, SetupTimeScalesWithMappings) {
  MicroVm vm(cfg, store);
  vm.boot(bytes_for_pages(128), VmState{});
  const u64 snap_id = vm.take_snapshot();
  auto plan_with = [&](u64 mappings) {
    RestorePlan plan;
    plan.guest_pages = 128;
    const u64 per = 128 / mappings;
    for (u64 i = 0; i < mappings; ++i)
      plan.mappings.push_back(RestoreMapping{i * per, per, tier_index(0),
                                             snap_id, i * per, false});
    return plan;
  };
  MicroVm a(cfg, store), b(cfg, store);
  const auto s1 = a.restore(plan_with(1));
  const auto s32 = b.restore(plan_with(32));
  EXPECT_NEAR(s32.setup_ns - s1.setup_ns, 31 * cfg.vmm.mmap_region_ns, 1.0);
}

TEST_F(MicroVmTest, CowFaultOnFirstWrite) {
  MicroVm vm(cfg, store);
  vm.boot(kMiB, VmState{});
  const auto r1 = vm.execute(simple_trace(0, 16, Pattern::kRandom, 0.5), ms(1));
  EXPECT_EQ(r1.cow_faults, 16u);
  const auto r2 = vm.execute(simple_trace(0, 16, Pattern::kRandom, 0.5), ms(1));
  EXPECT_EQ(r2.cow_faults, 0u);  // already copied
}

TEST_F(MicroVmTest, ApplyWritesBumpsVersionsAndSnapshotSees) {
  MicroVm vm(cfg, store);
  vm.boot(bytes_for_pages(32), VmState{});
  const BurstTrace t = simple_trace(4, 8, Pattern::kSequential, 0.7);
  vm.execute(t, ms(1));
  vm.apply_writes(t);
  EXPECT_EQ(vm.memory().version(4), 1u);
  EXPECT_EQ(vm.memory().version(0), 0u);
  const u64 id = vm.take_snapshot();
  EXPECT_EQ(store.get_single_tier(id)->page_version(4), 1u);
}

TEST_F(MicroVmTest, RestoreMaterializesTieredContent) {
  // Boot, write, snapshot, tier it, restore -> memory must match.
  MicroVm vm(cfg, store);
  vm.boot(bytes_for_pages(64), VmState{});
  const BurstTrace t = simple_trace(0, 64, Pattern::kSequential, 1.0);
  vm.execute(t, ms(1));
  vm.apply_writes(t);
  const GuestMemory want = vm.memory();
  const u64 snap_id = vm.take_snapshot();

  PagePlacement placement(64, tier_index(0));
  placement.set_range(32, 32, tier_index(1));
  const u64 fast_id = store.allocate_file_id();
  const u64 slow_id = store.allocate_file_id();
  store.put_tiered(TieredSnapshot::build(*store.get_single_tier(snap_id),
                                         placement, {fast_id, slow_id}));
  const TieredSnapshot* tiered = store.get_tiered(fast_id);

  RestorePlan plan;
  plan.guest_pages = 64;
  for (const auto& e : tiered->layout().entries()) {
    plan.mappings.push_back(RestoreMapping{
        e.guest_page, e.page_count, e.tier,
        tiered->file_id(tier_rank(e.tier)), e.file_page,
        tier_rank(e.tier) != 0});
  }
  MicroVm vm2(cfg, store);
  vm2.restore(plan);
  EXPECT_EQ(vm2.memory(), want);
}

// ---------------------------------------------------------------------------
// The range walk against a per-page reference: one backing entry and one
// rank per guest page, a page cache of per-file page flags,
// each burst's materialised expansion walked page by page, and a second
// pass over each burst for its memory time, as MicroVm worked before it
// kept the plan's mappings and summed accesses over page ranges.
// ---------------------------------------------------------------------------

class PerPageVm {
 public:
  PerPageVm(const SystemConfig& cfg, const SnapshotStore& store)
      : cfg_(cfg), store_(store), model_(cfg) {}

  /// Mirrors HostPageCache::fill_range on the store's cache.
  void prewarm(u64 file_id, u64 page_begin, u64 page_count) {
    for (u64 p = page_begin; p < page_begin + page_count; ++p)
      cache(file_id, p);
  }

  SetupResult restore(const RestorePlan& plan) {
    const u64 n = plan.guest_pages;
    memory_.assign(n, 0);
    rank_.assign(n, 0);
    placement_ = PagePlacement(n, tier_index(0));
    backing_.assign(n, Backing{});
    resident_.assign(n, false);
    written_.assign(n, false);
    SetupResult r;
    r.vm_state_ns = cfg_.vmm.vm_state_load_ns;
    for (const auto& m : plan.mappings) {
      r.mmap_ns += cfg_.vmm.mmap_region_ns;
      ++r.mappings;
      placement_.set_range(m.guest_page, m.page_count, m.tier);
      for (u64 i = 0; i < m.page_count; ++i) {
        rank_[m.guest_page + i] = tier_rank(m.tier);
        backing_[m.guest_page + i] =
            Backing{m.file_id, m.file_page + i, m.dax, true};
      }
    }
    for (const auto& e : plan.eager) {
      u64 uncached = 0;
      for (u64 i = 0; i < e.page_count; ++i) {
        if (!cached(e.file_id, e.file_page + i)) ++uncached;
        resident_[e.guest_page + i] = true;
      }
      for (u64 i = 0; i < e.page_count; ++i)
        cache(e.file_id, e.file_page + i);
      r.eager_load_ns += store_.seq_read_ns(bytes_for_pages(uncached));
      r.eager_load_ns +=
          static_cast<double>(e.page_count) * cfg_.vmm.pte_populate_ns;
      r.eager_pages += static_cast<u32>(e.page_count);
    }
    for (const auto& m : plan.mappings) {
      if (!m.file_id) continue;
      const SingleTierSnapshot* single = store_.get_single_tier(m.file_id);
      const TieredSnapshot* tiered = store_.get_tiered(m.file_id);
      for (u64 i = 0; i < m.page_count; ++i) {
        const u64 fp = m.file_page + i;
        memory_[m.guest_page + i] =
            single != nullptr
                ? single->page_version(fp)
                : tiered->tier_page_version(tier_rank(m.tier), fp);
      }
    }
    r.setup_ns = r.vm_state_ns + r.mmap_ns + r.eager_load_ns;
    return r;
  }

  ExecutionResult execute(const BurstTrace& trace, Nanos cpu_ns) {
    ExecutionResult r;
    r.cpu_ns = cpu_ns;
    demand_ = BurstCost{};
    AccessBurst expanded;
    std::vector<u64> counts;
    for (const AccessBurst& b : trace.bursts()) {
      // Memoized: the expansion depends on the burst alone.
      if (counts.empty() || !(b == expanded)) {
        counts = expand_burst_counts(b);
        expanded = b;
      }
      for (u64 i = 0; i < b.page_count; ++i) {
        if (counts[i] == 0) continue;
        const u64 g = b.page_begin + i;
        if (!resident_[g]) {
          r.fault_ns += fault_cost(g, b.pattern, r);
          resident_[g] = true;
          ++r.touched_pages;
        }
        if (b.write_fraction > 0.0 && !written_[g]) {
          const TierSpec& spec = cfg_.tier(tier_index(rank_[g]));
          r.fault_ns += cfg_.vmm.minor_fault_ns +
                        static_cast<double>(kPageSize) /
                            spec.write_bw_bytes_per_ns;
          written_[g] = true;
          ++r.cow_faults;
        }
        if (rank_[g] != 0) r.slow_accesses += counts[i];
        r.total_accesses += counts[i];
      }
      const BurstCost bc = model_.burst_cost(b, counts, placement_);
      for (size_t rank = 0; rank < cfg_.tier_count(); ++rank) {
        demand_.tier_ns[rank] += bc.tier_ns[rank];
        demand_.tier_read_bytes[rank] += bc.tier_read_bytes[rank];
        demand_.tier_write_bytes[rank] += bc.tier_write_bytes[rank];
      }
      r.mem_ns += bc.total_ns();
    }
    r.exec_ns = r.cpu_ns + r.mem_ns + r.fault_ns + r.profiling_overhead_ns;
    return r;
  }

  GuestMemory memory() const { return from_dense(memory_); }
  const BurstCost& demand() const { return demand_; }

 private:
  struct Backing {
    u64 file_id = 0;
    u64 file_page = 0;
    bool dax = false;
    bool file_backed = false;
  };

  bool cached(u64 file_id, u64 page) const {
    const auto it = cache_.find(file_id);
    return it != cache_.end() && page < it->second.size() && it->second[page];
  }
  void cache(u64 file_id, u64 page) {
    std::vector<bool>& pages = cache_[file_id];
    if (pages.size() <= page) pages.resize(page + 1, false);
    pages[page] = true;
  }

  Nanos fault_cost(u64 page, Pattern pattern, ExecutionResult& r) {
    const Backing& b = backing_[page];
    if (!b.file_backed || b.dax || cached(b.file_id, b.file_page)) {
      ++r.minor_faults;
      return cfg_.vmm.minor_fault_ns;
    }
    const u64 readahead =
        pattern == Pattern::kSequential ? store_.page_cache().readahead_pages()
                                        : 1;
    for (u64 p = b.file_page; p < b.file_page + readahead; ++p)
      cache(b.file_id, p);
    ++r.major_faults;
    ++r.disk_pages;
    r.disk_ns += cfg_.disk.random_read_latency_ns;
    return cfg_.disk.random_read_latency_ns + cfg_.vmm.major_fault_sw_ns;
  }

  const SystemConfig& cfg_;
  const SnapshotStore& store_;
  AccessCostModel model_;
  std::vector<u32> memory_;  ///< one version per guest page
  std::vector<size_t> rank_;  ///< one tier rank per guest page
  /// The plan's tiers, for AccessCostModel::burst_cost.
  PagePlacement placement_;
  std::vector<Backing> backing_;
  std::vector<bool> resident_;
  std::vector<bool> written_;
  /// One flag per page of each file id.
  std::map<u64, std::vector<bool>> cache_;
  BurstCost demand_;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_same_setup(const SetupResult& got, const SetupResult& want) {
  EXPECT_TRUE(same_bits(got.setup_ns, want.setup_ns));
  EXPECT_TRUE(same_bits(got.vm_state_ns, want.vm_state_ns));
  EXPECT_TRUE(same_bits(got.mmap_ns, want.mmap_ns));
  EXPECT_TRUE(same_bits(got.eager_load_ns, want.eager_load_ns));
  EXPECT_EQ(got.mappings, want.mappings);
  EXPECT_EQ(got.eager_pages, want.eager_pages);
}

void expect_same_exec(const ExecutionResult& got, const ExecutionResult& want) {
  EXPECT_TRUE(same_bits(got.exec_ns, want.exec_ns));
  EXPECT_TRUE(same_bits(got.mem_ns, want.mem_ns));
  EXPECT_TRUE(same_bits(got.fault_ns, want.fault_ns));
  EXPECT_TRUE(same_bits(got.disk_ns, want.disk_ns));
  EXPECT_EQ(got.minor_faults, want.minor_faults);
  EXPECT_EQ(got.major_faults, want.major_faults);
  EXPECT_EQ(got.cow_faults, want.cow_faults);
  EXPECT_EQ(got.disk_pages, want.disk_pages);
  EXPECT_EQ(got.touched_pages, want.touched_pages);
  EXPECT_EQ(got.slow_accesses, want.slow_accesses);
  EXPECT_EQ(got.total_accesses, want.total_accesses);
}

void expect_same_demand(const BurstCost& got, const BurstCost& want) {
  for (size_t r = 0; r < kMaxTiers; ++r) {
    EXPECT_TRUE(same_bits(got.tier_ns[r], want.tier_ns[r])) << r;
    EXPECT_TRUE(same_bits(got.tier_read_bytes[r], want.tier_read_bytes[r]))
        << r;
    EXPECT_TRUE(same_bits(got.tier_write_bytes[r], want.tier_write_bytes[r]))
        << r;
  }
}

/// `trace` with fewer accesses than pages in every burst, so each uniform
/// burst's nonzero prefix ends mid-burst.
BurstTrace thinned(const BurstTrace& trace) {
  BurstTrace out;
  for (AccessBurst b : trace.bursts()) {
    b.accesses = b.page_count / 3 + 1;
    out.push_back(b);
  }
  return out;
}

/// `trace` with every burst preceded by two copies of a variant differing
/// in one field, cycling through the fields a repeat must match: a burst
/// that equals its predecessor but for that field touches other pages, or
/// the same pages with other counts or writes.
BurstTrace field_variants(const BurstTrace& trace, u64 guest_pages) {
  BurstTrace out;
  int field = 0;
  for (const AccessBurst& b : trace.bursts()) {
    AccessBurst v = b;
    switch (field++ % 6) {
      case 0:
        v.accesses = v.page_count / 3 + 1;
        break;
      case 1:
        v.page_count = std::max<u64>(1, v.page_count / 2);
        break;
      case 2:
        v.page_begin = std::min(v.page_begin + 7, guest_pages - v.page_count);
        break;
      case 3:
        v.write_fraction = v.write_fraction > 0.0 ? 0.0 : 0.25;
        break;
      case 4:
        v.zipf_theta = v.zipf_theta > 0.0 ? 0.0 : 0.9;
        break;
      default:
        v.pattern = v.pattern == Pattern::kSequential ? Pattern::kRandom
                                                      : Pattern::kSequential;
    }
    out.push_back(v);
    out.push_back(v);
    out.push_back(b);
  }
  return out;
}

class IntervalRestoreTest : public ::testing::Test {
 protected:
  FunctionRegistry reg = FunctionRegistry::table1();

  /// Restore `plan` into a MicroVm and the reference, from a dropped cache
  /// that `warm` then fills (the same ranges in both), and run `runs`
  /// through both; every result and per-rank demand must agree bit for
  /// bit. A second pass restores again over the cache the first one
  /// filled.
  static void expect_matches_reference(
      const SystemConfig& cfg, SnapshotStore& store, const RestorePlan& plan,
      const std::vector<BurstTrace>& runs,
      const std::vector<EagerLoad>& warm = {}) {
    store.drop_caches();
    PerPageVm ref(cfg, store);
    for (const EagerLoad& w : warm) {
      store.page_cache().fill_range(w.file_id, w.file_page, w.page_count);
      ref.prewarm(w.file_id, w.file_page, w.page_count);
    }
    for (int pass = 0; pass < 2; ++pass) {
      SCOPED_TRACE(pass);
      MicroVm vm(cfg, store);
      expect_same_setup(vm.restore(plan), ref.restore(plan));
      EXPECT_EQ(vm.memory(), ref.memory());
      for (size_t i = 0; i < runs.size(); ++i) {
        SCOPED_TRACE(i);
        expect_same_exec(vm.execute(runs[i], 1000.0),
                         ref.execute(runs[i], 1000.0));
        expect_same_demand(vm.demand(), ref.demand());
      }
    }
  }

  /// Up to `count` random ranges inside `plan`'s file-backed mappings, as
  /// eager loads (guest and file pages in step).
  static std::vector<EagerLoad> random_ranges(const RestorePlan& plan,
                                              Rng& rng, int count) {
    std::vector<EagerLoad> out;
    for (int k = 0; k < count && !plan.mappings.empty(); ++k) {
      const RestoreMapping& m =
          plan.mappings[rng.next_below(plan.mappings.size())];
      if (!m.file_id || m.page_count == 0) continue;
      const u64 off = rng.next_below(m.page_count);
      const u64 len = 1 + rng.next_below(std::min<u64>(m.page_count - off, 300));
      out.push_back(EagerLoad{m.guest_page + off, len, m.file_id,
                              m.file_page + off});
    }
    return out;
  }

  /// `plan` with random eager loads inside its mappings, sorted and
  /// disjoint as restore policies emit them.
  static RestorePlan with_random_eager(RestorePlan plan, Rng& rng) {
    std::vector<EagerLoad> ranges = random_ranges(plan, rng, 12);
    std::sort(ranges.begin(), ranges.end(),
              [](const EagerLoad& a, const EagerLoad& b) {
                return a.guest_page < b.guest_page;
              });
    u64 covered = 0;
    for (const EagerLoad& e : ranges) {
      if (e.guest_page < covered) continue;
      plan.eager.push_back(e);
      covered = e.guest_page + e.page_count;
    }
    return plan;
  }

  /// Every restore policy on `cfg`'s ladder for `m`, against the
  /// reference. The single-tier policies map rank 0 only, so they run on
  /// the paper ladder alone (`single_tier`); the TOSS plans run a random
  /// striped placement over every rung.
  void expect_function_matches(const SystemConfig& cfg, const FunctionModel& m,
                               bool single_tier) {
    SnapshotStore store(cfg);
    std::vector<Invocation> invs = {m.invoke(2, 11), m.invoke(3, 12),
                                    m.invoke(0, 13)};
    // The thinned trace runs first after each restore, so the pages past
    // each prefix stay untouched through the whole execute.
    std::vector<BurstTrace> runs = {
        thinned(invs[0].trace),
        field_variants(invs[0].trace, m.guest_pages())};
    for (const Invocation& inv : invs) runs.push_back(inv.trace);

    // Step I: a written guest image, snapshotted.
    MicroVm boot(cfg, store);
    boot.boot(m.guest_bytes(), VmState{});
    boot.execute(invs[0].trace, invs[0].cpu_ns);
    boot.apply_writes(invs[0].trace);
    const u64 snap_id = boot.take_snapshot();
    const SingleTierSnapshot& snap = *store.get_single_tier(snap_id);
    const u64 pages = snap.num_pages();
    Rng rng(pages ^ cfg.tier_count());

    if (single_tier) {
      const RestorePlan vanilla = VanillaPolicy(store, snap_id).plan_restore();
      expect_matches_reference(cfg, store, vanilla, runs);
      expect_matches_reference(cfg, store, vanilla, runs,
                               random_ranges(vanilla, rng, 8));
      expect_matches_reference(
          cfg, store,
          VanillaPolicy(store, snap_id, /*eager=*/true).plan_restore(), runs);
      expect_matches_reference(cfg, store,
                               with_random_eager(vanilla, rng), runs,
                               random_ranges(vanilla, rng, 8));
      expect_matches_reference(
          cfg, store,
          ReapPolicy(store, snap_id, uffd_working_set(invs[0].trace, pages))
              .plan_restore(),
          runs);
      const RestorePlan faasnap =
          FaasnapPolicy(store, snap_id,
                        mincore_working_set(
                            invs[0].trace, pages,
                            store.page_cache().readahead_pages()))
              .plan_restore();
      EXPECT_GT(faasnap.mapping_count(), 1u);  // gap mappings around the WS
      EXPECT_GT(faasnap.eager_pages(), 0u);
      expect_matches_reference(cfg, store, faasnap, runs);
    }

    // TOSS: a striped placement over every rung, restored through the
    // policy (all DAX) and through a plan whose rank-0 mappings page
    // through the cache.
    PagePlacement placement(pages, tier_index(0));
    for (u64 p = 0; p < pages;) {
      const u64 run = 1 + rng.next_below(512);
      placement.set_range(p, std::min(run, pages - p),
                          tier_index(rng.next_below(cfg.tier_count())));
      p += run;
    }
    const u64 tiered_id = tier_snapshot(store, snap, placement);
    const RestorePlan toss = TossPolicy(store, tiered_id).plan_restore();
    EXPECT_GT(toss.mapping_count(), 2u);
    expect_matches_reference(cfg, store, toss, runs);
    RestorePlan paged = toss;
    for (RestoreMapping& mapping : paged.mappings)
      mapping.dax = tier_rank(mapping.tier) != 0;
    expect_matches_reference(cfg, store, paged, runs,
                             random_ranges(paged, rng, 8));
    expect_matches_reference(cfg, store, with_random_eager(paged, rng), runs);

    // Holes no mapping covers are anonymous memory. Adjacent layout
    // entries alternate ranks, so dropping every third mapping leaves
    // holes before both paged and DAX mappings.
    RestorePlan holes = paged;
    holes.mappings.clear();
    for (size_t i = 0; i < paged.mappings.size(); ++i)
      if (i % 3 != 1) holes.mappings.push_back(paged.mappings[i]);
    expect_matches_reference(cfg, store, holes, runs,
                             random_ranges(holes, rng, 8));
  }
};

TEST_F(IntervalRestoreTest, EveryPolicyMatchesThePerPageReference) {
  const SystemConfig ladders[] = {SystemConfig::paper_default(),
                                  SystemConfig::cxl_host(),
                                  SystemConfig::nvme_host()};
  for (const SystemConfig& cfg : ladders) {
    SCOPED_TRACE(cfg.tier_count());
    for (const FunctionModel& m : reg.models()) {
      SCOPED_TRACE(m.name());
      expect_function_matches(cfg, m, cfg.tier_count() == 2);
    }
  }
}

#ifdef TOSS_CHECKED
TEST(MicroVmDeathTest, UnsortedOrOverlappingMappingsAreRejected) {
  const SystemConfig cfg = SystemConfig::paper_default();
  SnapshotStore store(cfg);
  const u64 id = store.put_single_tier(patterned_memory(64), VmState{});
  RestorePlan overlapping;
  overlapping.guest_pages = 64;
  overlapping.mappings = {RestoreMapping{0, 40, tier_index(0), id, 0, false},
                          RestoreMapping{32, 32, tier_index(0), id, 32, false}};
  RestorePlan unsorted;
  unsorted.guest_pages = 64;
  unsorted.mappings = {RestoreMapping{32, 32, tier_index(0), id, 32, false},
                       RestoreMapping{0, 32, tier_index(0), id, 0, false}};
  EXPECT_DEATH(MicroVm(cfg, store).restore(overlapping), "sorted and disjoint");
  EXPECT_DEATH(MicroVm(cfg, store).restore(unsorted), "sorted and disjoint");
}
#endif  // TOSS_CHECKED

// ---------------------------------------------------------------------------
// Failure domains: typed errors, verification, quarantine, atomic puts.
// The corruption hooks (corrupt_tiered_page / truncate_tiered) damage the
// store directly, so these paths are covered without an injector; the
// torn-put test attaches one.
// ---------------------------------------------------------------------------

/// Runs `f`, which must throw toss::Error, and returns the carried code.
template <typename F>
ErrorCode code_of(F&& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected toss::Error, nothing thrown";
  return ErrorCode::kUnknownFunction;
}

class SnapshotFailureTest : public ::testing::Test {
 protected:
  SystemConfig cfg = SystemConfig::paper_default();
  SnapshotStore store{cfg};
  u64 single_id = 0, fast_id = 0, slow_id = 0;

  void SetUp() override {
    single_id = store.put_single_tier(patterned_memory(32), VmState{});
    PagePlacement placement(32, tier_index(0));
    placement.set_range(16, 16, tier_index(1));
    fast_id = store.allocate_file_id();
    slow_id = store.allocate_file_id();
    store.put_tiered(TieredSnapshot::build(*store.get_single_tier(single_id),
                                           placement, {fast_id, slow_id}));
  }
};

TEST_F(SnapshotFailureTest, FetchMissingIdsThrowTypedErrors) {
  EXPECT_EQ(code_of([&] { store.fetch_single_tier(999); }),
            ErrorCode::kSnapshotMissing);
  EXPECT_EQ(code_of([&] { store.fetch_tiered(999); }),
            ErrorCode::kSnapshotMissing);
  // The happy paths back the same ids.
  EXPECT_EQ(store.fetch_single_tier(single_id).materialize(),
            patterned_memory(32));
  EXPECT_EQ(&store.fetch_tiered(slow_id), store.get_tiered(fast_id));
}

TEST_F(SnapshotFailureTest, VerifyTieredDetectsBitrot) {
  EXPECT_TRUE(store.verify_tiered(fast_id).ok());
  ASSERT_TRUE(store.corrupt_tiered_page(fast_id, 3));
  const auto broken = store.verify_tiered(fast_id);
  ASSERT_FALSE(broken.ok());
  EXPECT_EQ(broken.code(), ErrorCode::kSnapshotCorrupted);
  // Resolution through the slow-id alias sees the same damage.
  EXPECT_FALSE(store.verify_tiered(slow_id).ok());
  EXPECT_FALSE(store.corrupt_tiered_page(999, 0));
}

TEST_F(SnapshotFailureTest, VerifyTieredDetectsTruncation) {
  EXPECT_TRUE(store.verify_tiered(fast_id).ok());
  ASSERT_TRUE(store.truncate_tiered(fast_id));
  const auto broken = store.verify_tiered(fast_id);
  ASSERT_FALSE(broken.ok());
  EXPECT_EQ(broken.code(), ErrorCode::kSnapshotCorrupted);
  EXPECT_FALSE(store.truncate_tiered(999));
}

TEST_F(SnapshotFailureTest, EraseTieredDropsTheArtifactAndItsAliases) {
  EXPECT_FALSE(store.erase_tiered(999));
  EXPECT_TRUE(store.erase_tiered(slow_id));  // any alias names the artifact
  EXPECT_EQ(store.get_tiered(fast_id), nullptr);
  EXPECT_EQ(store.get_tiered(slow_id), nullptr);
  EXPECT_FALSE(store.erase_tiered(fast_id));
  EXPECT_FALSE(store.is_quarantined(fast_id));
  EXPECT_NE(store.get_single_tier(single_id), nullptr);

  // A quarantined artifact is left alone: its history stays readable.
  PagePlacement placement(32, tier_index(0));
  placement.set_range(0, 8, tier_index(1));
  const u64 fast2 = store.allocate_file_id();
  const u64 slow2 = store.allocate_file_id();
  store.put_tiered(TieredSnapshot::build(*store.get_single_tier(single_id),
                                         placement, {fast2, slow2}));
  store.quarantine_tiered(fast2);
  EXPECT_FALSE(store.erase_tiered(slow2));
  EXPECT_TRUE(store.is_quarantined(fast2));
  EXPECT_TRUE(store.is_quarantined(slow2));
  EXPECT_EQ(store.quarantine_count(), 1u);
}

TEST_F(SnapshotFailureTest, QuarantineHidesArtifactAndIsIdempotent) {
  // Quarantine via the slow-id alias; both ids become unreadable.
  store.quarantine_tiered(slow_id);
  EXPECT_TRUE(store.is_quarantined(fast_id));
  EXPECT_TRUE(store.is_quarantined(slow_id));
  EXPECT_EQ(store.get_tiered(fast_id), nullptr);
  EXPECT_EQ(store.get_tiered(slow_id), nullptr);
  EXPECT_EQ(code_of([&] { store.fetch_tiered(fast_id); }),
            ErrorCode::kSnapshotMissing);
  const auto v = store.verify_tiered(fast_id);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.code(), ErrorCode::kSnapshotMissing);

  store.quarantine_tiered(fast_id);  // idempotent
  EXPECT_EQ(store.quarantine_count(), 1u);

  // The retained single-tier generation is untouched: the degrade rung.
  EXPECT_EQ(store.fetch_single_tier(single_id).materialize(),
            patterned_memory(32));
}

TEST_F(SnapshotFailureTest, ResidentBytesFollowTheAliasMap) {
  // Either file id of a tiered pair resolves to the same artifact and its
  // per-rank page counts; a single-tier generation pins its full image;
  // unknown and quarantined ids resolve to nothing.
  const TieredSnapshot* tiered = store.get_tiered(fast_id);
  ASSERT_NE(tiered, nullptr);
  EXPECT_EQ(store.get_tiered(slow_id), tiered);
  ASSERT_EQ(tiered->tier_count(), 2u);
  EXPECT_EQ(tiered->fast_pages(), 16u);
  EXPECT_EQ(tiered->slow_pages(), 16u);
  // The per-rank view agrees with the rollups.
  EXPECT_EQ(tiered->tier_pages(0), tiered->fast_pages());
  EXPECT_EQ(tiered->tier_pages(1), tiered->slow_pages());

  EXPECT_EQ(store.get_single_tier(single_id)->memory_bytes(),
            bytes_for_pages(32));
  EXPECT_EQ(store.get_tiered(single_id), nullptr);
  EXPECT_EQ(store.get_tiered(999), nullptr);
  EXPECT_EQ(store.get_single_tier(999), nullptr);

  store.quarantine_tiered(slow_id);
  EXPECT_EQ(store.get_tiered(fast_id), nullptr);
  EXPECT_EQ(store.get_tiered(slow_id), nullptr);
}

TEST_F(SnapshotFailureTest, RepeatedChecksumFailuresQuarantineOnce) {
  // Every fetch of a bitrotted artifact fails its checksum; the recovery
  // path reacts by quarantining each time — through the slow-id alias —
  // and the quarantine must stay idempotent.
  ASSERT_TRUE(store.corrupt_tiered_page(fast_id, 3));
  for (int round = 0; round < 3; ++round) {
    EXPECT_FALSE(store.verify_tiered(slow_id).ok()) << round;
    store.quarantine_tiered(slow_id);
  }
  EXPECT_EQ(store.quarantine_count(), 1u);

  // Both ids report "quarantined", not a silent missing-mapping.
  try {
    store.fetch_tiered(slow_id);
    ADD_FAILURE() << "fetch of quarantined artifact did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kSnapshotMissing);
    EXPECT_NE(std::string(e.what()).find("quarantined"), std::string::npos);
  }
}

TEST_F(SnapshotFailureTest, RestoreMissingFileIdThrowsTyped) {
  MicroVm vm(cfg, store);
  RestorePlan plan;
  plan.guest_pages = 32;
  plan.mappings.push_back(
      RestoreMapping{0, 32, tier_index(0), 999, 0, false});
  EXPECT_EQ(code_of([&] { vm.restore(plan); }), ErrorCode::kSnapshotMissing);
}

TEST_F(SnapshotFailureTest, RestoreOverrunMappingThrowsCorrupted) {
  // A mapping that reads past the end of the snapshot file means the
  // artifact and the plan disagree about its length: corrupted, not missing.
  MicroVm vm(cfg, store);
  RestorePlan plan;
  plan.guest_pages = 64;
  plan.mappings.push_back(
      RestoreMapping{0, 64, tier_index(0), single_id, 0, false});
  EXPECT_EQ(code_of([&] { vm.restore(plan); }),
            ErrorCode::kSnapshotCorrupted);
}

TEST(SnapshotStore, PublishDamageChurnKeepsEveryIdReadable) {
  // The store's one owner keeps publishing, quarantining and truncating
  // artifacts; after every round the read paths (lookups, verification,
  // quarantine checks) probe every id allocated so far. Puts are atomic,
  // so an intact artifact — through its rank-0 id or its deep-rank alias —
  // always verifies with its full page counts, and each damaged id reports
  // its own failure mode.
  enum class Kind { kSingle, kIntact, kQuarantined, kTruncated };
  const SystemConfig cfg = SystemConfig::paper_default();
  SnapshotStore store(cfg);
  std::map<u64, Kind> kinds;
  u64 newest = 0;  // latest intact (never-damaged) rank-0 id
  u64 quarantined = 0;
  for (int round = 0; round < 120; ++round) {
    const u64 sid = store.put_single_tier(patterned_memory(32), VmState{});
    PagePlacement placement(32, tier_index(0));
    placement.set_range(16, 16, tier_index(1));
    const u64 fast_id = store.allocate_file_id();
    const u64 slow_id = store.allocate_file_id();
    store.put_tiered(TieredSnapshot::build(*store.get_single_tier(sid),
                                           placement, {fast_id, slow_id}));
    Kind kind = Kind::kIntact;
    if (round % 5 == 1) {
      store.quarantine_tiered(fast_id);
      ++quarantined;
      kind = Kind::kQuarantined;
    } else if (round % 7 == 2) {
      EXPECT_TRUE(store.truncate_tiered(fast_id));
      kind = Kind::kTruncated;
    } else {
      newest = fast_id;
    }
    kinds[sid] = Kind::kSingle;
    kinds[fast_id] = kinds[slow_id] = kind;

    for (const auto& [id, k] : kinds) {
      const Result<void> verified = store.verify_tiered(id);
      switch (k) {
        case Kind::kSingle:
          ASSERT_NE(store.get_single_tier(id), nullptr) << "id " << id;
          EXPECT_EQ(store.get_single_tier(id)->memory_bytes(),
                    bytes_for_pages(32));
          EXPECT_EQ(store.get_tiered(id), nullptr);
          EXPECT_EQ(verified.code(), ErrorCode::kSnapshotMissing);
          break;
        case Kind::kIntact:
          EXPECT_TRUE(verified.ok()) << "id " << id;
          ASSERT_NE(store.get_tiered(id), nullptr) << "id " << id;
          EXPECT_EQ(store.get_tiered(id)->fast_pages(), 16u);
          EXPECT_EQ(store.get_tiered(id)->slow_pages(), 16u);
          break;
        case Kind::kQuarantined:
          EXPECT_TRUE(store.is_quarantined(id)) << "id " << id;
          EXPECT_EQ(store.get_tiered(id), nullptr);
          EXPECT_EQ(verified.code(), ErrorCode::kSnapshotMissing);
          break;
        case Kind::kTruncated:
          EXPECT_FALSE(store.is_quarantined(id)) << "id " << id;
          EXPECT_EQ(verified.code(), ErrorCode::kSnapshotCorrupted);
          break;
      }
    }
  }
  EXPECT_EQ(store.quarantine_count(), quarantined);
  ASSERT_NE(newest, 0u);
  EXPECT_TRUE(store.verify_tiered(newest).ok());
  ASSERT_NE(store.get_tiered(newest), nullptr);
  EXPECT_GT(store.get_tiered(newest)->fast_pages(), 0u);
  EXPECT_GT(store.get_tiered(newest)->slow_pages(), 0u);
}

TEST(SnapshotStoreFaults, TornPutLeavesPreviousGenerationReadable) {
  const SystemConfig cfg = SystemConfig::paper_default();
  SnapshotStore store(cfg);

  FaultPlan plan;
  plan.seed = 7;
  plan.set(FaultSite::kPutSingleTier, {.schedule = {1}});  // 2nd put tears
  plan.set(FaultSite::kPutTiered, {.schedule = {0}});      // 1st put tears
  FaultInjector injector(plan, 0);
  store.attach_faults(&injector);

  const u64 gen1 = store.put_single_tier(patterned_memory(16), VmState{});
  EXPECT_EQ(code_of([&] {
              store.put_single_tier(patterned_memory(32), VmState{});
            }),
            ErrorCode::kTransientIo);
  // Atomicity: the torn write changed nothing — the previous generation is
  // still readable and no file id was burned.
  EXPECT_EQ(store.fetch_single_tier(gen1).materialize(),
            patterned_memory(16));
  const u64 gen2 = store.put_single_tier(patterned_memory(32), VmState{});
  EXPECT_EQ(gen2, gen1 + 1);

  PagePlacement placement(32, tier_index(0));
  placement.set_range(0, 16, tier_index(1));
  const u64 fast_id = store.allocate_file_id();
  const u64 slow_id = store.allocate_file_id();
  TieredSnapshot tiered = TieredSnapshot::build(
      *store.get_single_tier(gen2), placement, {fast_id, slow_id});
  EXPECT_EQ(code_of([&] { store.put_tiered(tiered); }),
            ErrorCode::kTransientIo);
  EXPECT_EQ(store.get_tiered(fast_id), nullptr);
  store.put_tiered(tiered);  // retry lands: only the schedule's arm tears
  ASSERT_NE(store.get_tiered(fast_id), nullptr);
  EXPECT_EQ(store.get_tiered(fast_id)->materialize(), patterned_memory(32));
  EXPECT_EQ(injector.total_fires(), 2u);
  store.attach_faults(nullptr);
}

}  // namespace
}  // namespace toss
