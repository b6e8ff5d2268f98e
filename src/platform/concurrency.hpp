// The platform's one execution substrate and the Fig-9 contention model.
//
// LaneExecutor is the only place in src/ that creates threads (toss_lint's
// thread-spawn rule): every drain — PlatformEngine's and ClusterEngine's —
// runs its lane chunks on it, one executor round per epoch, with every
// cross-lane decision at the serial barrier between rounds (DESIGN.md
// §15).
//
// Contention model (Fig 9).
//
// The paper runs up to 20 concurrent invocations on a 20-core host, so CPU
// time does not contend — shared memory tiers and the snapshot disk do.
// Each invocation is first simulated solo (its ExecutionResult, plus the
// per-tier time and device-bandwidth demand MicroVm::demand() reports for
// it); this model then scales the contended components by each
// resource's aggregate utilization:
//
//   utilization(tier) = sum_i read_demand_i/read_bw + write_demand_i/write_bw
//   factor = max(1, utilization)
//
// evaluated over the makespan, iterated to a fixed point (slower
// invocations spread their demand over a longer window, lowering pressure).
#pragma once

#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "vmm/microvm.hpp"

namespace toss {

// ---------------------------------------------------------------------------
// Claim-cursor lane executor (DESIGN.md §15).
//
// One executor round per epoch, one index per planned lane. Lane costs are
// uneven (a cold restore is ~1000x a warm hit), so indices are handed out
// one at a time: every participant — the workers plus the calling thread —
// claims the next unclaimed index under the executor's one mutex and runs
// fn(index) with the lock released. A slow index holds up only the
// participant running it. Rounds are a few dozen to a hundred lane chunks
// of milliseconds each, so two lock round-trips per index cost nothing
// measurable.
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

 private:
  /// Waits for each epoch after `seen` and helps drain it, until stop_.
  void worker_loop(u64 seen);
  /// Claims and runs indices until none is left unclaimed. Entered and
  /// left with `lock` held; fn runs with it released.
  void drain(std::unique_lock<std::mutex>& lock);

  std::mutex mu_;
  std::condition_variable wake_;  ///< workers: a new epoch, or stop_
  std::condition_variable done_;  ///< caller: next_ == n_ && running_ == 0
  // Guarded by mu_.
  u64 epoch_ = 0;
  const std::function<void(size_t)>* fn_ = nullptr;
  size_t n_ = 0;
  size_t next_ = 0;     ///< the claim cursor: next unclaimed index
  size_t running_ = 0;  ///< claimed indices whose fn has not returned
  bool stop_ = false;
  std::exception_ptr first_error_;
  /// Filled by the constructor only. Declared last: the workers use
  /// every member above.
  std::vector<std::thread> workers_;
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
};

struct ConcurrencyOutcome {
  /// Per-invocation contended execution time (same order as input).
  std::vector<Nanos> exec_ns;
  ContentionFactors factors;
};

/// One invocation simulated solo: its ExecutionResult and the per-rank
/// memory time and device demand of that execute (MicroVm::demand()).
struct SoloRun {
  ExecutionResult exec;
  BurstCost demand;
};

/// Scale the solo runs' execution times under K-way concurrency (K = size
/// of `solo`). All invocations are assumed to start together, as in the
/// paper's scalability experiment.
ConcurrencyOutcome run_concurrent(const SystemConfig& cfg,
                                  const std::vector<SoloRun>& solo);

}  // namespace toss
