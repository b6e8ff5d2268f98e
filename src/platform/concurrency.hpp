// The platform's one execution substrate and the Fig-9 contention model.
//
// LaneExecutor is the only place in src/ that creates threads (toss_lint's
// thread-spawn rule): every drain — PlatformEngine's and ClusterEngine's —
// runs its lane chunks on it, one executor round per epoch, with every
// cross-lane decision at the serial barrier between rounds (DESIGN.md
// §15). RankedMutex is the rank-checked mutex its queues use.
//
// Contention model (Fig 9).
//
// The paper runs up to 20 concurrent invocations on a 20-core host, so CPU
// time does not contend — shared memory tiers and the snapshot disk do.
// Each invocation is first simulated solo (its ExecutionResult carries
// per-tier time and device-bandwidth demand); this model then scales the
// contended components by each resource's aggregate utilization:
//
//   utilization(tier) = sum_i read_demand_i/read_bw + write_demand_i/write_bw
//   factor = max(1, utilization)
//
// evaluated over the makespan, iterated to a fixed point (slower
// invocations spread their demand over a longer window, lowering pressure).
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/contracts.hpp"
#include "vmm/microvm.hpp"

namespace toss {

// ---------------------------------------------------------------------------
// Lock-rank deadlock detection (checked builds).
//
// Every real mutex in the platform layer carries a rank; a thread may only
// acquire locks in strictly increasing rank order. Under TOSS_CHECKED an
// out-of-order (or same-rank, i.e. potentially ABBA) acquisition aborts
// immediately with both lock names — turning a once-in-a-thousand-runs
// deadlock hang into a deterministic crash at the first wrong nesting. In
// unchecked builds RankedMutex is a plain std::mutex wrapper with zero
// bookkeeping.
// ---------------------------------------------------------------------------

/// Global lock ordering, lowest acquired first. Only the LaneExecutor's
/// locks exist today. A deque or park lock is held only around its own
/// queue operation — never across a lane task — so any future platform
/// mutex ranks above them: a worker inside a task may take it, while code
/// holding it can never re-enter the executor.
enum class LockRank : int {
  kLaneExecutorQueue = 4,  ///< LaneExecutor per-worker deque mutexes
  kLaneExecutorPark = 6,   ///< LaneExecutor idle-park mutex
};

/// std::mutex with a rank, compatible with std::lock_guard /
/// std::unique_lock / std::condition_variable_any. Checked builds maintain
/// a thread-local stack of held ranks and abort on out-of-order
/// acquisition; a condition-variable wait unlocks (popping the rank) and
/// re-locks (re-validating), so waiting never wedges the detector.
class RankedMutex {
 public:
  RankedMutex(LockRank rank, const char* name) : rank_(rank), name_(name) {}

  RankedMutex(const RankedMutex&) = delete;
  RankedMutex& operator=(const RankedMutex&) = delete;

  void lock();
  void unlock();
  bool try_lock();

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::mutex mu_;
  LockRank rank_;
  const char* name_;
};

namespace detail {
/// Checked-build validation hooks (no-ops when TOSS_CHECKED is off).
/// Exposed so tests can drive the detector without a real deadlock.
void lock_rank_push(const RankedMutex& m);
void lock_rank_pop(const RankedMutex& m);
/// nullopt when acquiring `m` respects the rank order for this thread,
/// else a diagnostic naming the conflicting held lock.
std::optional<std::string> lock_rank_violation(const RankedMutex& m);
}  // namespace detail

// ---------------------------------------------------------------------------
// Work-stealing lane executor (DESIGN.md §15).
//
// The epoch scheduler's unit of work is one lane chunk, and lane costs are
// wildly uneven (a cold restore is ~1000x a warm hit), so static
// round-robin leaves workers idle behind the slowest lane. This executor
// balances dynamically:
//
//   - Per-participant deques of contiguous index chunks. run_epoch(n, fn)
//     splits [0, n) evenly across the workers plus the calling thread;
//     each participant pops single indices from the *back* of its own
//     deque and, when empty, steals the *front* chunk of a victim's deque
//     — taking half and leaving half (steal-half), so a large remainder
//     stays stealable by others.
//   - One epoch-generation atomic replaces the per-epoch condition-
//     variable round: workers spin briefly on the generation counter
//     between epochs and park on a condition variable only after the spin
//     budget, so back-to-back epochs (the common case mid-drain) cost two
//     atomic ops per worker instead of a syscall-backed CV wakeup.
//   - Completion is an atomic countdown of finished indices; the caller
//     participates in the work and then spins out the stragglers, so an
//     epoch never sleeps on the hot path.
//
// Determinism: the executor schedules, it never reorders data — fn(k)
// must touch only state owned by index k (lane-local state in the
// engine), and every cross-index decision stays at the serial barrier.
// The first exception thrown by any index is rethrown to the caller after
// the epoch joins. A LaneExecutor(1) spawns no worker and runs every epoch
// inline on the caller, so the serial reference path is the same code.
// ---------------------------------------------------------------------------

/// std::thread::hardware_concurrency with a floor of 1: what a drain uses
/// when asked for threads <= 0.
int hardware_threads();

class LaneExecutor {
 public:
  /// Total parallelism including the calling thread: `threads - 1` workers
  /// are spawned (clamped to >= 0), and run_epoch() uses the caller as the
  /// final participant.
  explicit LaneExecutor(int threads);
  ~LaneExecutor();

  LaneExecutor(const LaneExecutor&) = delete;
  LaneExecutor& operator=(const LaneExecutor&) = delete;

  /// Participants (workers + the caller).
  int thread_count() const { return static_cast<int>(workers_.size()) + 1; }

  /// Run fn(0..n-1) across the participants; returns when every index has
  /// completed. Inline when there are no workers or n <= 1. The first
  /// exception thrown by any index is rethrown here.
  void run_epoch(size_t n, const std::function<void(size_t)>& fn);

  /// Chunks obtained by stealing since construction (observability; the
  /// scheduling tests assert the steal path is actually exercised).
  u64 steals() const { return steals_.load(std::memory_order_relaxed); }

 private:
  struct Chunk {
    size_t begin = 0;
    size_t end = 0;  ///< exclusive
  };
  /// One participant's deque. unique_ptr keeps RankedMutex addresses
  /// stable; the shell padding would be cache-line alignment in a larger
  /// system, but the deque lock is cold enough not to matter here.
  struct Slot {
    RankedMutex mu{LockRank::kLaneExecutorQueue, "LaneExecutor::slot"};
    std::vector<Chunk> deque;  ///< back = owner's end, front = steal end
  };

  void worker_loop(size_t self);
  /// Drain work for the current epoch: pop own deque, then steal-half.
  void work(size_t self);
  bool pop_local(size_t self, size_t* index);
  bool steal_half(size_t self, Chunk* chunk);
  void record_error();

  std::vector<std::unique_ptr<Slot>> slots_;  ///< workers first, caller last
  std::vector<std::thread> workers_;
  std::atomic<u64> epoch_gen_{0};
  std::atomic<size_t> remaining_{0};  ///< indices not yet completed
  std::atomic<bool> stop_{false};
  std::atomic<u64> steals_{0};
  /// Epoch work function. Published (release) *before* the chunks are
  /// dealt and loaded (acquire) per popped index, so a straggler from the
  /// previous epoch that pops a fresh chunk runs the fresh function — the
  /// deque mutex it popped under orders the two stores.
  std::atomic<const std::function<void(size_t)>*> fn_{nullptr};

  // Idle parking (rare path: only after the between-epoch spin budget).
  std::atomic<int> parked_{0};
  RankedMutex park_mu_{LockRank::kLaneExecutorPark, "LaneExecutor::park_mu_"};
  std::condition_variable_any park_cv_;
  std::exception_ptr first_error_;  ///< guarded by park_mu_
};

namespace detail {
constexpr std::array<double, kMaxTiers> unit_factors() {
  std::array<double, kMaxTiers> a{};
  for (auto& v : a) v = 1.0;
  return a;
}
}  // namespace detail

/// One contention pool per ladder rank (0 = fastest) plus the snapshot
/// disk. Ranks beyond the active ladder stay at 1.0.
struct ContentionFactors {
  std::array<double, kMaxTiers> tier = detail::unit_factors();
  double disk = 1.0;

  double fast() const { return tier[0]; }
  double slow() const { return tier[1]; }
};

struct ConcurrencyOutcome {
  /// Per-invocation contended execution time (same order as input).
  std::vector<Nanos> exec_ns;
  ContentionFactors factors;
};

/// Scale the solo runs' execution times under K-way concurrency (K = size
/// of `solo`). All invocations are assumed to start together, as in the
/// paper's scalability experiment.
ConcurrencyOutcome run_concurrent(const SystemConfig& cfg,
                                  const std::vector<ExecutionResult>& solo);

}  // namespace toss
