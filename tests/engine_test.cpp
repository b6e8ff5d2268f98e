// Tests for the concurrent platform engine: determinism of the parallel
// drain vs the serial reference path, per-function serialization under
// contention (run this suite under TOSS_SANITIZE=thread to let TSan audit
// it), metrics consistency, and engine-level error handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "platform/engine.hpp"
#include "workloads/functions.hpp"

namespace toss {
namespace {

TossOptions fast_toss() {
  TossOptions opt;
  opt.stable_invocations = 4;
  opt.max_profiling_invocations = 30;
  return opt;
}

/// A fleet of `n` isolated lanes cycling the Table-I specs, each with its
/// own request stream. Policies alternate so baselines are covered too.
std::unique_ptr<PlatformEngine> make_fleet(size_t n, size_t requests,
                                           EngineOptions opts = {}) {
  auto engine = std::make_unique<PlatformEngine>(
      SystemConfig::paper_default(), PricingPlan{}, opts);
  const std::vector<FunctionSpec> base = workloads::all_functions();
  const PolicyKind kinds[] = {PolicyKind::kToss, PolicyKind::kToss,
                              PolicyKind::kReap, PolicyKind::kVanilla};
  for (size_t i = 0; i < n; ++i) {
    FunctionSpec spec = base[i % base.size()];
    spec.name += "#" + std::to_string(i);
    auto stream = RequestGenerator::round_robin(
        requests, mix_seed(123, spec.name));
    EXPECT_TRUE(engine
                    ->add(FunctionRegistration(std::move(spec))
                              .policy(kinds[i % 4])
                              .toss(fast_toss())
                              .seed(10 + i),
                          std::move(stream))
                    .ok());
  }
  return engine;
}

TEST(Engine, ParallelMatchesSerialBitForBit) {
  constexpr size_t kFunctions = 10;  // >= 8 per the acceptance criteria
  constexpr size_t kRequests = 40;

  auto serial = make_fleet(kFunctions, kRequests);
  const EngineReport s = serial->run(1).value();

  auto parallel = make_fleet(kFunctions, kRequests);
  const EngineReport p = parallel->run(8).value();

  ASSERT_EQ(s.functions.size(), kFunctions);
  EXPECT_EQ(p.serialization_violations, 0u);
  for (const FunctionReport& f : s.functions)
    EXPECT_EQ(f.stats.invocations, kRequests) << f.name;
  // Bit-for-bit: every counter, histogram bucket, exact double sum,
  // outcome, ledger and rollup.
  EXPECT_TRUE(s == p);
}

TEST(Engine, TimeSeparatedDrainsEqualOneConcatenatedRun) {
  // Reusable-engine contract: drain() one burst per lane, feed the next
  // burst through drain(batch) — the cumulative report must be
  // bit-identical to one run() over the concatenated streams. It holds
  // when the batches are separated in simulated time, as here: two bursts
  // with an idle gap much longer than a burst's drain time. Checked
  // knob-free (nothing sheds) and with the lane-local knobs (bounded lane
  // queue + deadlines), where a us-scale arrival gap against ms-scale
  // service sheds heavily within each burst. Lanes cycle make_fleet's
  // policy mix, so TOSS, REAP and vanilla lanes all cross the split.
  constexpr size_t kFunctions = 6;
  constexpr size_t kBurst = 40;
  const PolicyKind kinds[] = {PolicyKind::kToss, PolicyKind::kToss,
                              PolicyKind::kReap, PolicyKind::kVanilla};
  EngineOptions lane_local;
  lane_local.max_lane_queue = 4;
  lane_local.enforce_deadlines = true;
  lane_local.chunk = 3;

  const auto burst = [](const std::string& name, u64 salt, Nanos t0) {
    auto reqs = RequestGenerator::open_loop(
        RequestGenerator::round_robin(kBurst, mix_seed(salt, name)), us(1),
        ms(2), mix_seed(salt, name));
    for (Request& r : reqs) {
      r.arrival_ns += t0;
      r.deadline_ns += t0;
    }
    return reqs;
  };

  for (const EngineOptions& opts : {EngineOptions{}, lane_local}) {
    const auto build = [&](bool with_second_burst) {
      auto engine = std::make_unique<PlatformEngine>(
          SystemConfig::paper_default(), PricingPlan{}, opts);
      const std::vector<FunctionSpec> base = workloads::all_functions();
      for (size_t i = 0; i < kFunctions; ++i) {
        FunctionSpec spec = base[i % base.size()];
        spec.name += "#" + std::to_string(i);
        auto stream = burst(spec.name, 1, 0);
        if (with_second_burst) {
          const auto tail = burst(spec.name, 2, sec(30));
          stream.insert(stream.end(), tail.begin(), tail.end());
        }
        EXPECT_TRUE(engine
                        ->add(FunctionRegistration(std::move(spec))
                                  .policy(kinds[i % 4])
                                  .toss(fast_toss())
                                  .seed(10 + i),
                              std::move(stream))
                        .ok());
      }
      return engine;
    };

    auto whole = build(true);
    const EngineReport one = whole->run(4).value();

    auto split = build(false);
    const EngineReport first = split->drain({}, 4).value();
    RequestBatch batch;
    for (const FunctionReport& f : first.functions) {
      // Knob-free, the first drain serves exactly the first burst.
      if (opts.max_lane_queue == 0) {
        EXPECT_EQ(f.stats.invocations, kBurst) << f.name;
      }
      batch.push_back(LaneBatch{f.name, burst(f.name, 2, sec(30))});
    }
    const EngineReport rest = split->drain(batch, 1).value();

    EXPECT_TRUE(one == rest);
    const u64 shed = one.total_shed();
    if (opts.max_lane_queue == 0)
      EXPECT_EQ(shed, 0u);  // knob-free: every request is served
    else
      EXPECT_GT(shed, 0u);  // the bursts really did overload the queues

    // Nothing is pending any more: another run() serves nothing and
    // returns the same cumulative report.
    EXPECT_TRUE(split->run(1).value() == rest);
    // Unknown lanes are rejected, not absorbed.
    EXPECT_EQ(split->drain({LaneBatch{"ghost", {}}}).code(),
              ErrorCode::kUnknownFunction);
  }
}

TEST(Engine, SerializationHoldsUnderContention) {
  // chunk=1 maximizes lane handoffs between workers: every request is its
  // own epoch index, so a lane handed to two workers at once would show
  // up as a violation (and as a TSan report under TOSS_SANITIZE=thread).
  EngineOptions opts;
  opts.chunk = 1;
  opts.keep_outcomes = false;
  auto engine = make_fleet(12, 30, opts);
  const EngineReport report = engine->run(8).value();
  EXPECT_EQ(report.serialization_violations, 0u);
  for (const FunctionReport& f : report.functions)
    EXPECT_EQ(f.stats.invocations, 30u) << f.name;
}

TEST(Engine, MetricsCountersSumToInvocationCounts) {
  constexpr size_t kFunctions = 8;
  constexpr size_t kRequests = 25;
  auto engine = make_fleet(kFunctions, kRequests);
  const EngineReport report = engine->run(4).value();

  EXPECT_EQ(report.total_invocations(), kFunctions * kRequests);
  for (const FunctionReport& f : report.functions) {
    const FunctionStats& s = f.stats;
    EXPECT_EQ(s.invocations, kRequests) << f.name;
    EXPECT_EQ(s.invocations, f.overload.completed) << f.name;
    // Per-phase counters partition the invocations.
    u64 phase_sum = 0;
    for (u64 c : s.phase_invocations) phase_sum += c;
    EXPECT_EQ(phase_sum, s.invocations) << f.name;
    EXPECT_EQ(s.total_ns.count(), s.invocations) << f.name;
    EXPECT_EQ(s.setup_ns.count(), s.invocations) << f.name;
    EXPECT_EQ(s.exec_ns.count(), s.invocations) << f.name;
    // The histograms summarize the outcome stream exactly: same sum (in
    // the same order), extremes and charge.
    ASSERT_EQ(f.outcomes.size(), s.invocations) << f.name;
    double sum = 0, charge = 0;
    Nanos lo = f.outcomes[0].result.total_ns(), hi = lo;
    for (const InvocationOutcome& o : f.outcomes) {
      sum += o.result.total_ns();
      charge += o.charge;
      lo = std::min(lo, o.result.total_ns());
      hi = std::max(hi, o.result.total_ns());
    }
    EXPECT_EQ(s.total_ns.sum(), sum) << f.name;
    EXPECT_EQ(s.total_ns.min(), lo) << f.name;
    EXPECT_EQ(s.total_ns.max(), hi) << f.name;
    EXPECT_EQ(s.total_charge, charge) << f.name;
    EXPECT_LE(s.total_ns.percentile(50), s.total_ns.percentile(99)) << f.name;
    EXPECT_LE(s.total_ns.percentile(99), hi) << f.name;
  }
  // The JSON serializes without blowing up and carries the totals.
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"total_invocations\":" +
                      std::to_string(kFunctions * kRequests)),
            std::string::npos);
}

TEST(Engine, RejectsBadLanesAndRerunsServeOnlyNewWork) {
  PlatformEngine engine;
  ASSERT_TRUE(engine
                  .add(FunctionRegistration(workloads::pyaes())
                           .policy(PolicyKind::kToss)
                           .toss(fast_toss()),
                       RequestGenerator::fixed(3, 1, 1))
                  .ok());

  const auto dup = engine.add(FunctionRegistration(workloads::pyaes()),
                              RequestGenerator::fixed(3, 1, 1));
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.code(), ErrorCode::kDuplicateFunction);

  const auto bad_stream =
      engine.add(FunctionRegistration(workloads::compress()),
                 {{kNumInputs, 1}});
  EXPECT_FALSE(bad_stream.ok());
  EXPECT_EQ(bad_stream.code(), ErrorCode::kInvalidRequest);

  const EngineReport first = engine.run(2).value();
  ASSERT_EQ(first.functions.size(), 1u);
  EXPECT_EQ(first.functions[0].stats.invocations, 3u);
  // A second run() has nothing pending: the same cumulative report.
  EXPECT_TRUE(engine.run(2).value() == first);
  // A lane added after a run is served by the next run, and only it.
  ASSERT_TRUE(engine
                  .add(FunctionRegistration(workloads::linpack())
                           .policy(PolicyKind::kToss)
                           .toss(fast_toss()),
                       RequestGenerator::fixed(2, 1, 1))
                  .ok());
  const EngineReport late = engine.run(2).value();
  ASSERT_EQ(late.functions.size(), 2u);
  EXPECT_TRUE(late.functions[0] == first.functions[0]);
  EXPECT_EQ(late.functions[1].stats.invocations, 2u);
  EXPECT_EQ(late.total_invocations(), 3u + 2u);
}

TEST(Engine, TossLanesReachTieredPhase) {
  auto engine = make_fleet(4, 40);
  const EngineReport report = engine->run(2).value();
  // Lanes 0 and 1 are kToss with a 4-stable window over 40 requests.
  EXPECT_EQ(report.functions[0].final_phase, TossPhase::kTiered);
  EXPECT_EQ(report.functions[1].final_phase, TossPhase::kTiered);
  EXPECT_NE(engine->toss_state(report.functions[0].name), nullptr);
  EXPECT_EQ(engine->toss_state("no-such-lane"), nullptr);
}

}  // namespace
}  // namespace toss
