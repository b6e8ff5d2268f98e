#include "platform/concurrency.hpp"

#include <algorithm>
#include <cmath>

namespace toss {

namespace detail {

namespace {
// Ranks (not pointers) of the locks this thread currently holds, in
// acquisition order. thread_local so the detector needs no global lock of
// its own.
thread_local std::vector<const RankedMutex*> t_held_locks;
}  // namespace

std::optional<std::string> lock_rank_violation(const RankedMutex& m) {
  if (t_held_locks.empty()) return std::nullopt;
  const RankedMutex* top = t_held_locks.back();
  if (static_cast<int>(m.rank()) > static_cast<int>(top->rank()))
    return std::nullopt;
  return std::string("lock-rank violation: acquiring '") + m.name() +
         "' (rank " + std::to_string(static_cast<int>(m.rank())) +
         ") while holding '" + top->name() + "' (rank " +
         std::to_string(static_cast<int>(top->rank())) +
         "); locks must be taken in increasing rank order";
}

void lock_rank_push(const RankedMutex& m) { t_held_locks.push_back(&m); }

void lock_rank_pop(const RankedMutex& m) {
  // Unlocks are LIFO in practice (lock_guard / unique_lock / cv wait), but
  // tolerate out-of-order release: erase the most recent matching entry.
  for (auto it = t_held_locks.rbegin(); it != t_held_locks.rend(); ++it) {
    if (*it == &m) {
      t_held_locks.erase(std::next(it).base());
      return;
    }
  }
}

}  // namespace detail

void RankedMutex::lock() {
#ifdef TOSS_CHECKED
  TOSS_VALIDATE(detail::lock_rank_violation(*this));
#endif
  mu_.lock();
#ifdef TOSS_CHECKED
  detail::lock_rank_push(*this);
#endif
}

void RankedMutex::unlock() {
#ifdef TOSS_CHECKED
  detail::lock_rank_pop(*this);
#endif
  mu_.unlock();
}

bool RankedMutex::try_lock() {
#ifdef TOSS_CHECKED
  TOSS_VALIDATE(detail::lock_rank_violation(*this));
#endif
  const bool acquired = mu_.try_lock();
#ifdef TOSS_CHECKED
  if (acquired) detail::lock_rank_push(*this);
#endif
  return acquired;
}

// ---------------------------------------------------------------------------
// LaneExecutor (work-stealing epochs, DESIGN.md §15).

namespace {
/// Spins on the epoch-generation / completion atomics before parking or
/// yielding. Epochs are microseconds apart mid-drain, so this is nearly
/// always enough.
constexpr int kIdleSpins = 4096;
}  // namespace

int hardware_threads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

LaneExecutor::LaneExecutor(int threads) {
  const size_t workers =
      threads > 1 ? static_cast<size_t>(threads - 1) : size_t{0};
  slots_.reserve(workers + 1);
  for (size_t i = 0; i < workers + 1; ++i)
    slots_.push_back(std::make_unique<Slot>());
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

LaneExecutor::~LaneExecutor() {
  stop_.store(true, std::memory_order_release);
  // The generation bump doubles as the shutdown signal: spinners see it
  // (with stop_ set and no work) and exit; parked workers need the wakeup.
  epoch_gen_.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard<RankedMutex> lock(park_mu_);
  }
  park_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

bool LaneExecutor::pop_local(size_t self, size_t* index) {
  Slot& slot = *slots_[self];
  std::lock_guard<RankedMutex> lock(slot.mu);
  if (slot.deque.empty()) return false;
  Chunk& back = slot.deque.back();
  *index = back.begin++;
  if (back.begin >= back.end) slot.deque.pop_back();
  return true;
}

bool LaneExecutor::steal_half(size_t self, Chunk* chunk) {
  const size_t p = slots_.size();
  for (size_t offset = 1; offset < p; ++offset) {
    Slot& victim = *slots_[(self + offset) % p];
    // One deque lock at a time (they share a rank): the stolen chunk is
    // extracted here and pushed onto our own deque by the caller, after
    // this lock is gone.
    std::lock_guard<RankedMutex> lock(victim.mu);
    if (victim.deque.empty()) continue;
    Chunk& front = victim.deque.front();
    const size_t len = front.end - front.begin;
    if (len <= 1) {
      *chunk = front;
      victim.deque.erase(victim.deque.begin());
    } else {
      // Steal-half: take the upper half, leave the lower half in place so
      // a third worker can still split the remainder.
      const size_t mid = front.begin + (len + 1) / 2;
      *chunk = Chunk{mid, front.end};
      front.end = mid;
    }
    steals_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void LaneExecutor::record_error() {
  std::lock_guard<RankedMutex> lock(park_mu_);
  if (!first_error_) first_error_ = std::current_exception();
}

void LaneExecutor::work(size_t self) {
  for (;;) {
    size_t index;
    while (pop_local(self, &index)) {
      // Re-load per index: a straggler that pops a chunk dealt by the
      // *next* epoch must run that epoch's function, not a dangling
      // reference to the one it was woken for.
      const std::function<void(size_t)>* fn =
          fn_.load(std::memory_order_acquire);
      try {
        (*fn)(index);
        // Not swallowed: captured whole and rethrown from run_epoch's
        // join.
      } catch (...) {  // toss-lint: allow(swallowed-error)
        record_error();
      }
      remaining_.fetch_sub(1, std::memory_order_acq_rel);
    }
    Chunk stolen;
    if (!steal_half(self, &stolen)) return;  // every deque is dry
    std::lock_guard<RankedMutex> lock(slots_[self]->mu);
    slots_[self]->deque.push_back(stolen);
  }
}

void LaneExecutor::worker_loop(size_t self) {
  u64 seen = epoch_gen_.load(std::memory_order_acquire);
  for (;;) {
    // Wait for the next generation: spin first (back-to-back epochs), park
    // only when the drain has genuinely gone idle.
    u64 gen = epoch_gen_.load(std::memory_order_acquire);
    if (gen == seen) {
      for (int spin = 0; spin < kIdleSpins && gen == seen; ++spin)
        gen = epoch_gen_.load(std::memory_order_acquire);
      if (gen == seen) {
        std::unique_lock<RankedMutex> lock(park_mu_);
        parked_.fetch_add(1, std::memory_order_release);
        // The predicate must re-check stop_, not just the generation: a
        // worker first scheduled after the destructor's final bump loads
        // the post-shutdown generation as its baseline, so no further
        // bump (or notify) is ever coming for it.
        park_cv_.wait(lock, [this, seen] {
          return stop_.load(std::memory_order_acquire) ||
                 epoch_gen_.load(std::memory_order_acquire) != seen;
        });
        parked_.fetch_sub(1, std::memory_order_release);
        gen = epoch_gen_.load(std::memory_order_acquire);
      }
    }
    seen = gen;
    if (stop_.load(std::memory_order_acquire)) return;
    work(self);
  }
}

void LaneExecutor::run_epoch(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const size_t p = slots_.size();
  const size_t caller = p - 1;
  // Publish the function and the countdown BEFORE any chunk is dealt: a
  // straggler that pops a fresh chunk synchronizes through the deque
  // mutex, so everything stored before the push is visible to it.
  fn_.store(&fn, std::memory_order_release);
  remaining_.store(n, std::memory_order_release);
  // Deal [0, n) into contiguous per-participant chunks; the caller's slot
  // is dealt too, so with perfectly even costs no steal ever happens.
  for (size_t s = 0; s < p; ++s) {
    const size_t begin = n * s / p;
    const size_t end = n * (s + 1) / p;
    if (begin >= end) continue;
    std::lock_guard<RankedMutex> lock(slots_[s]->mu);
    slots_[s]->deque.push_back(Chunk{begin, end});
  }
  epoch_gen_.fetch_add(1, std::memory_order_release);
  if (parked_.load(std::memory_order_acquire) > 0) {
    // Empty critical section: pairs the notify with the waiter's re-check
    // so a worker deciding to park right now cannot miss the generation.
    {
      std::lock_guard<RankedMutex> lock(park_mu_);
    }
    park_cv_.notify_all();
  }

  work(caller);
  // The caller's deque is dry and nothing was stealable, so only indices
  // already claimed by workers remain: spin them out (they are mid-fn, not
  // queued — this wait is bounded by one chunk's work).
  for (int spin = 0; remaining_.load(std::memory_order_acquire) > 0; ++spin)
    if (spin >= kIdleSpins) std::this_thread::yield();

  std::exception_ptr error;
  {
    std::lock_guard<RankedMutex> lock(park_mu_);
    error = first_error_;
    first_error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

ConcurrencyOutcome run_concurrent(const SystemConfig& cfg,
                                  const std::vector<ExecutionResult>& solo) {
  ConcurrencyOutcome out;
  out.exec_ns.resize(solo.size());
  for (size_t i = 0; i < solo.size(); ++i) out.exec_ns[i] = solo[i].exec_ns;
  if (solo.empty()) return out;

  // Offered-load saturation: each job consumes a fraction of a device equal
  // to (device time its demand needs at full speed) / (its solo execution
  // time) — i.e. its duty cycle on that device. When the jobs' summed duty
  // cycles exceed 1, the device is oversubscribed and every job's time on
  // it stretches by the total offered load. Every ladder rank is its own
  // pool — CXL traffic does not contend with DRAM or PMem traffic. This is
  // what makes 20 fault-heavy REAP invocations collapse on the snapshot
  // disk while a TOSS pagerank — whose hot half stayed in DRAM and whose
  // deep-tier duty cycles are low — keeps scaling like DRAM (Fig 9).
  const size_t ranks = cfg.tier_count();
  std::array<double, kMaxTiers> tier_load{};
  double disk_load = 0;
  for (const auto& r : solo) {
    if (r.exec_ns <= 0) continue;
    for (size_t rank = 0; rank < ranks; ++rank) {
      const TierSpec& spec = cfg.tiers[rank];
      const Nanos util = r.tier_read_bytes[rank] / spec.read_bw_bytes_per_ns +
                         r.tier_write_bytes[rank] / spec.write_bw_bytes_per_ns;
      tier_load[rank] += util / r.exec_ns;
    }
    const Nanos disk_util =
        static_cast<double>(r.disk_pages) / cfg.disk.random_read_iops * 1e9;
    disk_load += disk_util / r.exec_ns;
  }

  ContentionFactors f;
  for (size_t rank = 0; rank < ranks; ++rank)
    f.tier[rank] = std::max(1.0, tier_load[rank]);
  f.disk = std::max(1.0, disk_load);

  for (size_t i = 0; i < solo.size(); ++i) {
    const auto& r = solo[i];
    const Nanos other_fault = r.fault_ns - r.disk_ns;
    Nanos t = r.cpu_ns + r.profiling_overhead_ns + other_fault;
    for (size_t rank = 0; rank < ranks; ++rank)
      t += r.mem_tier_ns[rank] * f.tier[rank];
    out.exec_ns[i] = t + r.disk_ns * f.disk;
  }
  out.factors = f;
  return out;
}

}  // namespace toss
