// MicroVm: the Firecracker-like virtual machine model.
//
// A restore policy (vanilla lazy, REAP prefetch, TOSS tiered) compiles to a
// RestorePlan: memory mappings plus optional eager loads. The VM then
// executes an invocation's BurstTrace, charging page faults on first touch
// (minor when the backing page is cached/DAX, major when it must come from
// disk), copy-on-write faults on first write, and tier-dependent memory
// time for the accesses themselves.
#pragma once

#include <vector>

#include "mem/access_cost.hpp"
#include "trace/burst.hpp"
#include "vmm/snapshot_store.hpp"

namespace toss {

/// One memory mapping established at restore (one mmap() call).
struct RestoreMapping {
  u64 guest_page = 0;
  u64 page_count = 0;
  Tier tier = tier_index(0);
  u64 file_id = 0;
  u64 file_page = 0;
  /// DAX mappings (deep-tier files) access the backing device directly:
  /// first touch is a minor fault, never a disk read.
  bool dax = false;
};

/// Pages loaded eagerly at restore (REAP's working-set prefetch): read from
/// disk sequentially and their PTEs pre-populated, so execution takes no
/// fault at all for them.
struct EagerLoad {
  u64 guest_page = 0;
  u64 page_count = 0;
  u64 file_id = 0;
  u64 file_page = 0;
};

struct RestorePlan {
  VmState vm_state;
  u64 guest_pages = 0;
  /// Sorted by guest page and disjoint (every restore policy emits them
  /// that way; MicroVm::restore requires it). Guest pages no mapping
  /// covers are anonymous memory.
  std::vector<RestoreMapping> mappings;
  std::vector<EagerLoad> eager;

  u64 mapping_count() const { return static_cast<u64>(mappings.size()); }
  u64 eager_pages() const;
};

// The engine keeps every invocation's results in its reports, so they stay
// small: page and mapping counts are u32 (MicroVm takes guests of fewer
// than 2^32 pages), and an execute's per-rank split is MicroVm::demand(),
// not a field.
struct SetupResult {
  Nanos setup_ns = 0;
  Nanos vm_state_ns = 0;
  Nanos mmap_ns = 0;
  Nanos eager_load_ns = 0;
  u32 mappings = 0;
  u32 eager_pages = 0;

  bool operator==(const SetupResult&) const = default;
};

struct ExecutionResult {
  Nanos exec_ns = 0;  ///< cpu + memory + faults + profiling overhead
  Nanos cpu_ns = 0;
  /// Memory time, summed burst by burst; its split per ladder rank is
  /// MicroVm::demand().
  Nanos mem_ns = 0;
  Nanos fault_ns = 0;      ///< all fault handling, incl. disk_ns
  Nanos disk_ns = 0;       ///< device portion of major faults
  Nanos profiling_overhead_ns = 0;
  u32 minor_faults = 0;
  u32 major_faults = 0;
  u32 cow_faults = 0;
  u32 disk_pages = 0;       ///< pages demand-read from disk
  u32 touched_pages = 0;
  u64 slow_accesses = 0;    ///< LLC misses served below the fastest tier
  u64 total_accesses = 0;

  bool operator==(const ExecutionResult&) const = default;
};

struct InvocationResult {
  SetupResult setup;
  ExecutionResult exec;
  Nanos total_ns() const { return setup.setup_ns + exec.exec_ns; }

  bool operator==(const InvocationResult&) const = default;
};

class MicroVm {
 public:
  MicroVm(const SystemConfig& cfg, SnapshotStore& store);

  /// Cold boot with anonymous DRAM memory (initial execution, Step I).
  SetupResult boot(u64 guest_bytes, const VmState& state);

  /// Restore from a plan. Establishes mappings, performs eager loads.
  /// Host cost follows the plan's mappings and eager loads: the VM keeps
  /// the mappings, and builds its contents in guest order from a zero run
  /// per hole and each mapping's slice of its file's version runs.
  SetupResult restore(const RestorePlan& plan);

  /// Execute one invocation: `trace` is its memory activity, `cpu_ns` the
  /// pure compute time. `profiling_overhead_ns` is added when DAMON rides
  /// along. Mutates residency/page-cache state.
  ///
  /// Each burst's accesses are summed once per mapping piece its nonzero
  /// prefix meets (holes are rank 0); a burst repeating the previous one
  /// field for field reuses its per-rank sums, since its pages are
  /// resident and written by then. The pages still to fault are found a
  /// bitmap word at a time and charged in address order, first touch then
  /// copy-on-write, so fault_ns adds the same doubles in the same order as
  /// a per-page walk.
  ExecutionResult execute(const BurstTrace& trace, Nanos cpu_ns,
                          Nanos profiling_overhead_ns = 0);

  /// Per-rank memory time and device bandwidth demand of the last
  /// execute(), summed burst by burst: what the contention model
  /// (run_concurrent) scales. All zero before the first execute().
  const BurstCost& demand() const { return demand_; }

  /// Write-back of the workload's dirty pages into guest memory versions,
  /// so a snapshot taken after execution reflects the run: one range bump
  /// per writing burst.
  void apply_writes(const BurstTrace& trace);

  /// Snapshot current guest memory (single tier); returns file id.
  u64 take_snapshot();

  const GuestMemory& memory() const { return memory_; }
  GuestMemory& memory() { return memory_; }
  const VmState& vm_state() const { return vm_state_; }
  u64 guest_pages() const { return memory_.num_pages(); }

 private:
  /// Index of the first mapping ending after `page` (mappings_.size() if
  /// none); that mapping covers `page` iff it starts at or before it.
  size_t first_mapping_after(u64 page) const;

  /// Sums a burst's accesses per rank and charges the faults its pages
  /// still take, piece by piece over the mappings.
  RankAccesses walk_burst(const AccessBurst& b);

  /// Charges the pages of [lo, hi) (within one mapping piece of burst
  /// `b`; `mapping` is nullptr for a hole) that are not yet resident, or
  /// not yet written by a writing burst; leaves them all resident (and
  /// written). A file-backed, non-DAX piece's first touches are split
  /// into minor and major faults a bitmap word at a time by
  /// HostPageCache::fault_word; the counters are popcounts, and fault_ns
  /// adds each page's charges in address order.
  void fault_range(u64 lo, u64 hi, const RestoreMapping* mapping,
                   const AccessBurst& b);

  /// Fault counters for the execute() call in progress.
  ExecutionResult pending_;
  BurstCost demand_;

  const SystemConfig* cfg_;
  SnapshotStore* store_;
  AccessCostModel cost_model_;

  GuestMemory memory_{0};
  VmState vm_state_;
  std::vector<RestoreMapping> mappings_;  ///< the restore plan's, as given
  /// Bitmaps over guest pages (util/bitmap.hpp).
  std::vector<u64> resident_;
  std::vector<u64> written_;
};

}  // namespace toss
