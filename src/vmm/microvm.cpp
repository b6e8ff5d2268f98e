#include "vmm/microvm.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/bitmap.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"

namespace toss {

u64 RestorePlan::eager_pages() const {
  u64 n = 0;
  for (const auto& e : eager) n += e.page_count;
  return n;
}

MicroVm::MicroVm(const SystemConfig& cfg, SnapshotStore& store)
    : cfg_(&cfg), store_(&store), cost_model_(cfg) {}

SetupResult MicroVm::boot(u64 guest_bytes, const VmState& state) {
  memory_ = GuestMemory(guest_bytes);
  vm_state_ = state;
  const u64 n = memory_.num_pages();
  TOSS_REQUIRE(n < (u64{1} << 32), "guest too large for u32 page counts");
  mappings_.clear();  // anonymous, zero-fill on demand
  resident_.assign(bitmap_words(n), 0);
  written_.assign(bitmap_words(n), 0);

  SetupResult r;
  r.vm_state_ns = cfg_->vmm.boot_ns;
  r.mmap_ns = cfg_->vmm.mmap_region_ns;  // one anonymous mapping
  r.mappings = 1;
  r.setup_ns = r.vm_state_ns + r.mmap_ns;
  return r;
}

SetupResult MicroVm::restore(const RestorePlan& plan) {
  // Injection sites for the restore failure domain: a transient mapping
  // failure (retried by the recovery ladder) and a slow-tier device stall
  // (latency spike charged to setup, not an error). Armed before any VM
  // state changes so a thrown fault leaves this MicroVm untouched.
  FaultInjector* faults = store_->faults();
  if (faults != nullptr && faults->should_fire(FaultSite::kRestoreMapping))
    throw Error(ErrorCode::kTransientIo,
                "mmap failed establishing restore mappings");

  vm_state_ = plan.vm_state;
  const u64 n = plan.guest_pages;
  TOSS_REQUIRE(n < (u64{1} << 32), "guest too large for u32 page counts");
  mappings_ = plan.mappings;
  resident_.assign(bitmap_words(n), 0);
  written_.assign(bitmap_words(n), 0);

  SetupResult r;
  r.vm_state_ns = cfg_->vmm.vm_state_load_ns;

  bool maps_slow_tier = false;
  u64 mapped_end = 0;
  for (const auto& m : plan.mappings) {
    TOSS_REQUIRE(m.guest_page + m.page_count <= n);
    TOSS_REQUIRE(m.guest_page >= mapped_end,
                 "restore mappings must be sorted and disjoint");
    mapped_end = m.guest_page + m.page_count;
    r.mmap_ns += cfg_->vmm.mmap_region_ns;
    ++r.mappings;
    TOSS_REQUIRE(tier_rank(m.tier) < cfg_->tier_count(),
                 "restore mapping tier outside the ladder");
    maps_slow_tier |= tier_rank(m.tier) >= 1;
  }
  if (faults != nullptr && maps_slow_tier &&
      faults->should_fire(FaultSite::kSlowTierStall))
    r.mmap_ns += faults->stall_ns(FaultSite::kSlowTierStall);

  // Eager loads: sequential disk reads (through the page cache) plus PTE
  // population, REAP-style. Contiguous file ranges stream at full disk
  // bandwidth; the cache may already hold some pages.
  HostPageCache& cache = store_->page_cache();
  for (const auto& e : plan.eager) {
    TOSS_REQUIRE(e.guest_page + e.page_count <= n);
    const u64 uncached =
        e.page_count - cache.count_cached(e.file_id, e.file_page, e.page_count);
    for_each_word(e.guest_page, e.guest_page + e.page_count,
                  [&](u64 word, u64 mask) { resident_[word] |= mask; });
    cache.fill_range(e.file_id, e.file_page, e.page_count);
    r.eager_load_ns += store_->seq_read_ns(bytes_for_pages(uncached));
    r.eager_load_ns +=
        static_cast<double>(e.page_count) * cfg_->vmm.pte_populate_ns;
    r.eager_pages += static_cast<u32>(e.page_count);
  }

  // Materialize contents for integrity checking, in guest order: a zero
  // run for each hole and each anonymous mapping, and each file-backed
  // mapping's slice of its snapshot file's version runs. A mapping over a
  // file the store cannot resolve (deleted, quarantined, or never written)
  // is a hard restore failure, not a silent zero-fill.
  PageVersions contents;
  for (const auto& m : plan.mappings) {
    contents.append(m.guest_page - contents.num_pages(), 0);
    if (!m.file_id) {
      contents.append(m.page_count, 0);
      continue;
    }
    const PageVersions* file = nullptr;
    const char* kind = "snapshot";
    if (const SingleTierSnapshot* snap = store_->get_single_tier(m.file_id)) {
      file = &snap->page_versions();
    } else if (const TieredSnapshot* tiered = store_->get_tiered(m.file_id)) {
      // Tiered snapshot files resolve by any rank's file id.
      file = &tiered->tier_file(tier_rank(m.tier));
      kind = "tier";
    } else {
      throw Error(ErrorCode::kSnapshotMissing,
                  "restore mapping references missing snapshot file " +
                      std::to_string(m.file_id));
    }
    const u64 file_pages = file->num_pages();
    if (m.file_page + m.page_count > file_pages)
      throw Error(ErrorCode::kSnapshotCorrupted,
                  std::string("restore mapping overruns ") + kind + " file " +
                      std::to_string(m.file_id) + " (" +
                      std::to_string(m.file_page + m.page_count) + " > " +
                      std::to_string(file_pages) + " pages)");
    contents.append(*file, m.file_page, m.page_count);
  }
  contents.append(n - contents.num_pages(), 0);
  memory_ = GuestMemory(std::move(contents));

  r.setup_ns = r.vm_state_ns + r.mmap_ns + r.eager_load_ns;
  return r;
}

size_t MicroVm::first_mapping_after(u64 page) const {
  const auto it = std::upper_bound(
      mappings_.begin(), mappings_.end(), page,
      [](u64 p, const RestoreMapping& m) {
        return p < m.guest_page + m.page_count;
      });
  return static_cast<size_t>(it - mappings_.begin());
}

void MicroVm::fault_range(u64 lo, u64 hi, const RestoreMapping* mapping,
                          const AccessBurst& b) {
  ExecutionResult& r = pending_;
  const bool writes = b.write_fraction > 0.0;
  // Copy-on-write duplicates the page within its tier; holes are rank 0.
  const TierSpec& spec =
      cfg_->tier(mapping != nullptr ? mapping->tier : tier_index(0));
  const Nanos cow_ns = cfg_->vmm.minor_fault_ns +
                       static_cast<double>(kPageSize) /
                           spec.write_bw_bytes_per_ns;
  const Nanos minor_ns = cfg_->vmm.minor_fault_ns;
  // A major fault is a 4 KiB random read from disk. Sequential streams
  // benefit from readahead (neighbors land in the cache); random access
  // does not.
  const Nanos major_ns =
      cfg_->disk.random_read_latency_ns + cfg_->vmm.major_fault_sw_ns;
  // Only a file-backed, non-DAX piece reads through the host page cache;
  // anonymous zero-fill and DAX first touches are minor faults.
  HostPageCache* cache =
      mapping != nullptr && !mapping->dax ? &store_->page_cache() : nullptr;
  const bool readahead = b.pattern == Pattern::kSequential;
  for_each_word(lo, hi, [&](u64 word, u64 mask) {
    const u64 first_touch = ~resident_[word] & mask;
    const u64 cow = writes ? ~written_[word] & mask : 0;
    u64 major = 0;
    if (cache != nullptr && first_touch != 0) {
      const int shift = std::countr_zero(first_touch);
      const u64 g = word * kWordPages + static_cast<u64>(shift);
      major = cache->fault_word(mapping->file_id,
                                mapping->file_page + (g - mapping->guest_page),
                                first_touch >> shift, readahead)
              << shift;
    }
    const u32 touched = static_cast<u32>(std::popcount(first_touch));
    const u32 majors = static_cast<u32>(std::popcount(major));
    r.touched_pages += touched;
    r.minor_faults += touched - majors;
    r.major_faults += majors;
    r.disk_pages += majors;
    // Whole nanoseconds per read, so the sum is exact in any grouping.
    r.disk_ns +=
        static_cast<double>(majors) * cfg_->disk.random_read_latency_ns;
    r.cow_faults += static_cast<u32>(std::popcount(cow));
    // fault_ns is not: it adds each page's charges in address order, first
    // touch then copy-on-write.
    for (u64 todo = first_touch | cow; todo != 0; todo &= todo - 1) {
      const u64 bit = todo & -todo;
      if ((first_touch & bit) != 0)
        r.fault_ns += (major & bit) != 0 ? major_ns : minor_ns;
      if ((cow & bit) != 0) r.fault_ns += cow_ns;
    }
    resident_[word] |= mask;
    if (writes) written_[word] |= mask;
  });
}

RankAccesses MicroVm::walk_burst(const AccessBurst& b) {
  const BurstSpread spread(b);
  const u64 end = b.page_begin + spread.nonzero_pages();
  RankAccesses accesses{};
  // Pieces in address order: the part of a mapping the nonzero prefix
  // meets, or of the hole before the next mapping.
  size_t cursor = first_mapping_after(b.page_begin);
  for (u64 lo = b.page_begin; lo < end;) {
    const RestoreMapping* mapping = nullptr;
    u64 hi = end;
    if (cursor < mappings_.size()) {
      const RestoreMapping& m = mappings_[cursor];
      if (m.guest_page <= lo) {
        mapping = &m;
        hi = std::min(end, m.guest_page + m.page_count);
        ++cursor;
      } else {
        hi = std::min(end, m.guest_page);
      }
    }
    const size_t rank = mapping != nullptr ? tier_rank(mapping->tier) : 0;
    accesses[rank] += spread.sum(lo - b.page_begin, hi - b.page_begin);
    fault_range(lo, hi, mapping, b);
    lo = hi;
  }
  return accesses;
}

ExecutionResult MicroVm::execute(const BurstTrace& trace, Nanos cpu_ns,
                                 Nanos profiling_overhead_ns) {
  // Guest crash mid-invocation (before any snapshot is taken): the whole
  // attempt is lost and the recovery ladder re-restores and re-executes.
  if (FaultInjector* faults = store_->faults();
      faults != nullptr && faults->should_fire(FaultSite::kExecCrash))
    throw Error(ErrorCode::kExecutionCrashed,
                "guest crashed mid-invocation");
  pending_ = ExecutionResult{};
  demand_ = BurstCost{};
  ExecutionResult& r = pending_;
  r.cpu_ns = cpu_ns;
  r.profiling_overhead_ns = profiling_overhead_ns;

  const u64 n = memory_.num_pages();
  const size_t ranks = cfg_->tier_count();
  const AccessBurst* prev = nullptr;
  RankAccesses accesses{};
  BurstCost bc;
  for (const AccessBurst& b : trace.bursts()) {
    TOSS_REQUIRE(b.page_end() <= n);
    (void)n;
    // A repeat of the previous burst finds every page it touches resident
    // (and written, if it writes): no fault, and the same per-rank sums.
    if (prev == nullptr || !(b == *prev)) {
      accesses = walk_burst(b);
      bc = cost_model_.cost_of(b, accesses);
    }
    prev = &b;
    for (size_t rank = 0; rank < ranks; ++rank) {
      if (rank != 0) r.slow_accesses += accesses[rank];
      r.total_accesses += accesses[rank];
      demand_.tier_ns[rank] += bc.tier_ns[rank];
      demand_.tier_read_bytes[rank] += bc.tier_read_bytes[rank];
      demand_.tier_write_bytes[rank] += bc.tier_write_bytes[rank];
    }
    r.mem_ns += bc.total_ns();
  }

  r.exec_ns = r.cpu_ns + r.mem_ns + r.fault_ns + r.profiling_overhead_ns;
  return r;
}

void MicroVm::apply_writes(const BurstTrace& trace) {
  for (const auto& b : trace.bursts())
    if (b.write_fraction > 0.0) memory_.bump(b.page_begin, b.page_count);
}

u64 MicroVm::take_snapshot() {
  return store_->put_single_tier(memory_, vm_state_);
}

}  // namespace toss
