// Optimistic version-stamped latch — the vmcache `PageState` idiom
// (Leis et al., "Virtual-Memory Assisted Buffer Management", SIGMOD'23)
// adapted for the two structures of the parallel data plane that keep a
// latch (DESIGN.md §15): SnapshotStore resident-byte accounting (one store
// per lane) and KeepAliveCache lookups (the host arbiter's pool, touched
// only at the serial barrier).
//
// One 64-bit atomic word carries both the lock state and a version:
//
//   bits 63..56  state   0 = unlocked, 1..252 = shared-reader count,
//                        253 = exclusively locked
//   bits 55..0   version bumped by every exclusive unlock
//
// Three access protocols, cheapest first:
//
//   Optimistic read   optimistic_begin() spins past writers and returns
//                     the word; the reader then loads *atomic* fields and
//                     calls validate(word) — a version or state change
//                     means a writer interleaved, so retry. Zero stores on
//                     the read path, so readers never invalidate each
//                     other's cache lines. ONLY std::atomic fields may be
//                     read under this protocol: reading plain memory that
//                     a writer may concurrently mutate is a data race
//                     (TSan is right to flag the classic seqlock), which
//                     is why the container walks below use shared mode.
//   Shared            lock_shared() CAS-increments the reader count —
//                     lock-free, no mutex, no syscall — and excludes
//                     writers while plain-memory structures (the entry
//                     map, the blob maps) are walked.
//   Exclusive         lock_exclusive() CASes 0 -> 253; unlock_exclusive()
//                     publishes state 0 with version+1 in one release
//                     store, which is what makes the optimistic protocol
//                     sound.
//
// Mutation stays confined to the epoch barrier or to the lane that owns
// the entry (the engine's determinism argument); this latch makes the
// *reads* free once lanes steal across workers.
#pragma once

#include <atomic>
#include <thread>

#include "util/units.hpp"

namespace toss {

class OptimisticLatch {
 public:
  static constexpr u64 kUnlocked = 0;
  static constexpr u64 kMaxShared = 252;
  static constexpr u64 kExclusive = 253;

  OptimisticLatch() = default;
  OptimisticLatch(const OptimisticLatch&) = delete;
  OptimisticLatch& operator=(const OptimisticLatch&) = delete;

  static constexpr u64 state_of(u64 word) { return word >> 56; }
  static constexpr u64 version_of(u64 word) { return word & kVersionMask; }
  /// Same version, new state — the CAS target for lock transitions.
  static constexpr u64 same_version(u64 old, u64 state) {
    return ((old << 8) >> 8) | state << 56;
  }
  /// Version + 1, new state — the release store of an exclusive unlock.
  static constexpr u64 next_version(u64 old, u64 state) {
    return (((old << 8) >> 8) + 1) | state << 56;
  }

  // ---- Optimistic protocol (atomic fields only) ----

  /// Word snapshot to validate a read against; spins while a writer holds
  /// the latch (shared holders do not block optimistic readers).
  u64 optimistic_begin() const {
    for (int spin = 0;; ++spin) {
      const u64 word = word_.load(std::memory_order_acquire);
      if (state_of(word) != kExclusive) return word;
      if (spin >= kSpinLimit) std::this_thread::yield();
    }
  }

  /// True when no exclusive writer interleaved since `snapshot` was taken:
  /// the version is unchanged and no writer is mid-flight now.
  bool validate(u64 snapshot) const {
    return word_.load(std::memory_order_acquire) == snapshot;
  }

  // ---- Shared (CAS-counted readers; excludes writers) ----

  bool try_lock_shared() {
    u64 word = word_.load(std::memory_order_acquire);
    if (state_of(word) >= kMaxShared) return false;  // writer or full
    return word_.compare_exchange_weak(word, word + (u64{1} << 56),
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed);
  }

  void lock_shared() {
    for (int spin = 0; !try_lock_shared(); ++spin)
      if (spin >= kSpinLimit) std::this_thread::yield();
  }

  void unlock_shared() {
    word_.fetch_sub(u64{1} << 56, std::memory_order_release);
  }

  // ---- Exclusive (CAS lock-for-update, version bump on unlock) ----

  bool try_lock_exclusive() {
    u64 word = word_.load(std::memory_order_acquire);
    if (state_of(word) != kUnlocked) return false;
    return word_.compare_exchange_strong(word, same_version(word, kExclusive),
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed);
  }

  void lock_exclusive() {
    for (int spin = 0; !try_lock_exclusive(); ++spin)
      if (spin >= kSpinLimit) std::this_thread::yield();
  }

  void unlock_exclusive() {
    const u64 word = word_.load(std::memory_order_relaxed);
    word_.store(next_version(word, kUnlocked), std::memory_order_release);
  }

  /// Current version (debug / test observability).
  u64 version() const {
    return version_of(word_.load(std::memory_order_acquire));
  }

 private:
  static constexpr u64 kVersionMask = (u64{1} << 56) - 1;
  /// Spins before yielding; critical sections here are map operations, so
  /// waiters almost never reach the yield.
  static constexpr int kSpinLimit = 128;

  std::atomic<u64> word_{0};
};

/// RAII shared hold.
class SharedLatchGuard {
 public:
  explicit SharedLatchGuard(OptimisticLatch& latch) : latch_(latch) {
    latch_.lock_shared();
  }
  ~SharedLatchGuard() { latch_.unlock_shared(); }
  SharedLatchGuard(const SharedLatchGuard&) = delete;
  SharedLatchGuard& operator=(const SharedLatchGuard&) = delete;

 private:
  OptimisticLatch& latch_;
};

/// RAII exclusive hold; the destructor's unlock bumps the version, so
/// every mutation — including one that throws — invalidates optimistic
/// readers exactly once.
class ExclusiveLatchGuard {
 public:
  explicit ExclusiveLatchGuard(OptimisticLatch& latch) : latch_(latch) {
    latch_.lock_exclusive();
  }
  ~ExclusiveLatchGuard() { latch_.unlock_exclusive(); }
  ExclusiveLatchGuard(const ExclusiveLatchGuard&) = delete;
  ExclusiveLatchGuard& operator=(const ExclusiveLatchGuard&) = delete;

 private:
  OptimisticLatch& latch_;
};

}  // namespace toss
