// Snapshot storage on the simulated disk.
//
// Owns file-id allocation and the snapshot artifacts, which are in-process
// objects (a restore is priced from layout entries and touched pages, never
// from a byte encoding), and prices disk transfers using the DiskSpec. The
// lane's host page cache lives here too, so experiments can drop it between
// invocations like the paper's methodology does.
//
// Failure domain semantics (the fault-injection PR):
//   - Puts are atomic: artifacts are fully built before any store state is
//     touched (write-temp-then-rename), so a torn write — injected at the
//     kPutSingleTier / kPutTiered sites — throws toss::Error(kTransientIo)
//     and leaves every previous snapshot generation readable.
//   - Reads come in two flavours: the const get_* accessors (nullptr on
//     miss, used by restore policies on already-verified artifacts) and the
//     fetch_* ladder entry points, which arm the at-rest corruption sites
//     (kTierBitrot / kTierTruncate) and throw typed errors for missing or
//     quarantined ids.
//   - Quarantine: a checksum-failed tiered artifact is marked unreadable
//     so the recovery ladder degrades to the retained single-tier snapshot
//     and Step V regenerates a fresh artifact instead of re-mapping rot.
//
// Ownership (DESIGN.md §15): a store has one owner, its ServerlessPlatform
// — in an engine, one lane's. An epoch hands the lane to one executor
// index, and the serial barrier reads the store only after the round has
// joined, so the store is a plain single-threaded class.
#pragma once

#include <map>
#include <memory>
#include <set>

#include "mem/page_cache.hpp"
#include "mem/tier.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "vmm/snapshot.hpp"
#include "vmm/tiered_snapshot.hpp"

namespace toss {

class SnapshotStore {
 public:
  explicit SnapshotStore(const SystemConfig& cfg);

  /// Attach the lane's fault injector (nullptr detaches). The store does
  /// not own it; lifetime is managed by the platform that owns both.
  void attach_faults(FaultInjector* faults) { faults_ = faults; }
  FaultInjector* faults() { return faults_; }

  /// Allocate a fresh file id (snapshot files, WS files, layout files...).
  u64 allocate_file_id();

  /// Persist a single-tier snapshot of `memory`; returns its file id.
  /// Throws toss::Error(kTransientIo) when a torn-write fault fires; the
  /// store is unchanged in that case.
  u64 put_single_tier(const GuestMemory& memory, const VmState& state);

  const SingleTierSnapshot* get_single_tier(u64 file_id) const;

  /// Persist a tiered snapshot (already built); retrievable by any of its
  /// per-rank file ids. Same atomicity contract as put_single_tier.
  void put_tiered(TieredSnapshot snapshot);

  /// nullptr for unknown or quarantined ids.
  const TieredSnapshot* get_tiered(u64 file_id) const;

  /// Ladder read path for the single-tier snapshot: throws
  /// toss::Error(kSnapshotMissing) for unknown ids.
  const SingleTierSnapshot& fetch_single_tier(u64 file_id) const;

  /// Ladder read path for a tiered artifact: first arms the at-rest
  /// corruption sites (which may damage the stored artifact,
  /// deterministically), then resolves the id. Throws
  /// toss::Error(kSnapshotMissing) for unknown or quarantined ids. The
  /// caller verifies content via verify_tiered().
  const TieredSnapshot& fetch_tiered(u64 file_id);

  /// Content + structure verification of a stored tiered artifact:
  /// kSnapshotMissing for unknown/quarantined ids, kSnapshotCorrupted with
  /// the first violation otherwise.
  Result<void> verify_tiered(u64 file_id) const;

  /// Drop a superseded tiered artifact (any alias) and its rank aliases;
  /// callers erase the artifact a freshly built one replaced. Quarantined
  /// artifacts stay, so is_quarantined() and quarantine_count() keep
  /// their history. Returns whether anything was erased.
  bool erase_tiered(u64 file_id);

  /// Mark a tiered artifact unreadable (checksum failure). Idempotent.
  void quarantine_tiered(u64 file_id);
  bool is_quarantined(u64 file_id) const;
  u64 quarantine_count() const { return quarantined_.size(); }

  /// Fault/test hooks: damage a stored tiered artifact in place (checksums
  /// go stale, which verify_tiered detects). Return false for unknown ids.
  bool corrupt_tiered_page(u64 file_id, u64 fast_file_page);
  bool truncate_tiered(u64 file_id);

  HostPageCache& page_cache() { return page_cache_; }
  const HostPageCache& page_cache() const { return page_cache_; }

  /// Methodology step: drop all cached snapshot pages.
  void drop_caches() { page_cache_.drop(); }

  /// Sequential read of `bytes` from disk (or zero if fully cached — callers
  /// check the cache themselves for partial hits).
  Nanos seq_read_ns(u64 bytes) const;

  const SystemConfig& config() const { return *cfg_; }

 private:
  /// Resolve a tiered id through the deep-rank -> rank-0 alias map.
  u64 resolve_tiered(u64 file_id) const;
  TieredSnapshot* find_tiered(u64 file_id);

  const SystemConfig* cfg_;
  FaultInjector* faults_ = nullptr;
  u64 next_file_id_ = 1;
  // Ordered containers on purpose: the store sits in the include closure
  // of the metrics ledger, and any future walk over snapshots (resident-
  // byte rollups, eviction sweeps) must visit ids in a run-stable order.
  // Hash-map iteration order is not, and the det-unordered-iter lint rule
  // would reject it; id-ordered maps are deterministic by construction.
  std::map<u64, SingleTierSnapshot> single_tier_;
  std::map<u64, TieredSnapshot> tiered_;
  std::map<u64, u64> tiered_alias_;  ///< deep-rank id -> rank-0 id
  std::set<u64> quarantined_;  ///< rank-0 ids; never erased
  HostPageCache page_cache_;
};

}  // namespace toss
