#include "platform/concurrency.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace toss {

int hardware_threads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

LaneExecutor::LaneExecutor(int threads) {
  const size_t workers =
      threads > 1 ? static_cast<size_t>(threads - 1) : size_t{0};
  workers_.reserve(workers);
  // Every worker starts from the constructor's epoch rather than reading
  // epoch_ once it is first scheduled, so a worker that starts late still
  // joins a round already under way; and since its wait predicate checks
  // stop_ too, one first scheduled after ~LaneExecutor still exits.
  for (size_t i = 0; i < workers; ++i)
    workers_.emplace_back([this, seen = epoch_] { worker_loop(seen); });
}

LaneExecutor::~LaneExecutor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void LaneExecutor::drain(std::unique_lock<std::mutex>& lock) {
  while (next_ < n_) {
    const size_t index = next_++;
    ++running_;
    // fn_ stays valid while running_ > 0: run_epoch returns only after
    // every claimed index has come back.
    const std::function<void(size_t)>& fn = *fn_;
    lock.unlock();
    std::exception_ptr error;
    try {
      fn(index);
      // Not swallowed: captured whole and rethrown from run_epoch's join.
    } catch (...) {  // toss-lint: allow(swallowed-error)
      error = std::current_exception();
    }
    lock.lock();
    if (error && !first_error_) first_error_ = error;
    --running_;
  }
  if (running_ == 0) done_.notify_one();
}

void LaneExecutor::worker_loop(u64 seen) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    wake_.wait(lock, [this, seen] { return stop_ || epoch_ != seen; });
    if (stop_) return;
    seen = epoch_;
    drain(lock);
  }
}

void LaneExecutor::run_epoch(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  ++epoch_;
  fn_ = &fn;
  n_ = n;
  next_ = 0;
  wake_.notify_all();
  drain(lock);
  done_.wait(lock, [this] { return next_ == n_ && running_ == 0; });
  fn_ = nullptr;
  const std::exception_ptr error = std::exchange(first_error_, nullptr);
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

ConcurrencyOutcome run_concurrent(const SystemConfig& cfg,
                                  const std::vector<SoloRun>& solo) {
  ConcurrencyOutcome out;
  out.exec_ns.resize(solo.size());
  for (size_t i = 0; i < solo.size(); ++i)
    out.exec_ns[i] = solo[i].exec.exec_ns;
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
  for (const SoloRun& run : solo) {
    const ExecutionResult& r = run.exec;
    if (r.exec_ns <= 0) continue;
    for (size_t rank = 0; rank < ranks; ++rank) {
      const TierSpec& spec = cfg.tiers[rank];
      const Nanos util =
          run.demand.tier_read_bytes[rank] / spec.read_bw_bytes_per_ns +
          run.demand.tier_write_bytes[rank] / spec.write_bw_bytes_per_ns;
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
    const ExecutionResult& r = solo[i].exec;
    const Nanos other_fault = r.fault_ns - r.disk_ns;
    Nanos t = r.cpu_ns + r.profiling_overhead_ns + other_fault;
    for (size_t rank = 0; rank < ranks; ++rank)
      t += solo[i].demand.tier_ns[rank] * f.tier[rank];
    out.exec_ns[i] = t + r.disk_ns * f.disk;
  }
  out.factors = f;
  return out;
}

}  // namespace toss
