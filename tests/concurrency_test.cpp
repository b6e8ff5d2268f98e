// Tests for the DESIGN.md §15 parallel data-plane primitive: the
// claim-cursor LaneExecutor (epoch fan-out, dynamic hand-out around a slow
// index, exception propagation, the startup/shutdown race). Configure with
// -DTOSS_SANITIZE=thread to have TSan audit the executor's handoffs.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "platform/concurrency.hpp"

namespace toss {
namespace {

// ---------------------------------------------------------------------------
// LaneExecutor

TEST(LaneExecutor, EveryIndexRunsExactlyOnce) {
  const size_t sizes[] = {0, 1, 2, 7, 16, 64, 105};
  for (int threads : {1, 2, 4}) {
    LaneExecutor exec(threads);
    EXPECT_EQ(exec.thread_count(), threads);
    for (int epoch = 0; epoch < 50; ++epoch) {
      for (const size_t n : sizes) {
        std::vector<std::atomic<int>> counts(n);
        exec.run_epoch(n, [&](size_t i) {
          counts[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (size_t i = 0; i < n; ++i)
          ASSERT_EQ(counts[i].load(std::memory_order_relaxed), 1)
              << "threads=" << threads << " epoch=" << epoch << " n=" << n
              << " index=" << i;
      }
    }
  }
}

TEST(LaneExecutor, SingleParticipantRunsInline) {
  LaneExecutor exec(1);
  EXPECT_EQ(exec.thread_count(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(8);
  exec.run_epoch(8, [&](size_t i) { ran[i] = std::this_thread::get_id(); });
  for (const auto& id : ran) EXPECT_EQ(id, caller);
}

TEST(LaneExecutor, FirstExceptionPropagatesAndExecutorSurvives) {
  LaneExecutor exec(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(exec.run_epoch(32,
                              [&](size_t i) {
                                if (i == 3)
                                  throw std::runtime_error("lane 3 failed");
                                completed.fetch_add(
                                    1, std::memory_order_relaxed);
                              }),
               std::runtime_error);
  // Every non-throwing index still completed — the epoch joins fully
  // before rethrowing, so no straggler leaks into the next epoch.
  EXPECT_EQ(completed.load(std::memory_order_relaxed), 31);
  // The executor is reusable after an epoch that threw.
  std::atomic<int> after{0};
  exec.run_epoch(16, [&](size_t) {
    after.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(after.load(std::memory_order_relaxed), 16);
}

TEST(LaneExecutor, SlowIndexDoesNotStrandTheRest) {
  // Lane costs are wildly uneven mid-drain (a cold restore is ~1000x a
  // warm hit). Index 0 stays busy until the other 63 indices have all
  // completed; an executor that dealt indices out in fixed blocks would
  // leave the rest of index 0's block stuck behind it, and the bounded
  // wait would run out first.
  constexpr size_t kIndices = 64;
  constexpr int kMaxYields = 10'000'000;
  LaneExecutor exec(4);
  std::vector<std::atomic<int>> runs(kIndices);
  std::atomic<size_t> others_done{0};
  size_t others_seen_by_zero = 0;
  exec.run_epoch(kIndices, [&](size_t i) {
    runs[i].fetch_add(1, std::memory_order_relaxed);
    if (i != 0) {
      others_done.fetch_add(1, std::memory_order_acq_rel);
      return;
    }
    for (int y = 0; y < kMaxYields &&
                    others_done.load(std::memory_order_acquire) < kIndices - 1;
         ++y)
      std::this_thread::yield();
    others_seen_by_zero = others_done.load(std::memory_order_acquire);
  });
  EXPECT_EQ(others_seen_by_zero, kIndices - 1);
  for (size_t i = 0; i < kIndices; ++i)
    EXPECT_EQ(runs[i].load(std::memory_order_relaxed), 1) << "index " << i;
}

TEST(LaneExecutor, RapidCreateDestroyDoesNotHang) {
  // Regression: a worker first scheduled after ~LaneExecutor's final
  // generation bump used to load the post-shutdown generation as its park
  // baseline and wait on a wakeup that never comes (the park predicate did
  // not re-check stop_). On a loaded single-core host this deadlocked the
  // destructor's join. Rapid create/destroy cycles — with and without an
  // epoch in between — maximize the window; the ctest timeout is the
  // failure detector.
  for (int round = 0; round < 200; ++round) {
    LaneExecutor idle(4);  // destroyed before any worker may have run
  }
  for (int round = 0; round < 200; ++round) {
    LaneExecutor exec(4);
    std::atomic<int> ran{0};
    exec.run_epoch(4, [&](size_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(ran.load(std::memory_order_relaxed), 4);
  }
}

}  // namespace
}  // namespace toss
