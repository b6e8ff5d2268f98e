// Tests for overload robustness (DESIGN.md §9): the fast-tier budget
// arbiter's degradation ladder, bounded admission queues under a 10x
// offered load, deadline-aware shedding, the lane watchdog, and the
// determinism contract — shed/demote/recover ledgers must be bit-identical
// for any worker thread count at a fixed seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "platform/engine.hpp"
#include "util/error.hpp"
#include "workloads/functions.hpp"

namespace toss {
namespace {

TossOptions fast_toss() {
  TossOptions opt;
  opt.stable_invocations = 4;
  opt.max_profiling_invocations = 30;
  return opt;
}

// ---------------------------------------------------------------------------
// FastTierArbiter unit tests: the ladder in isolation, with synthetic lane
// demands and a scripted re-tier hook (class order, curve replay and the
// gates are in qos_test).
// ---------------------------------------------------------------------------

FastTierArbiter::LaneDemand demand(size_t lane, const std::string& name,
                                   u64 fast_bytes, bool active = true,
                                   bool demotable = true) {
  FastTierArbiter::LaneDemand d;
  d.lane = lane;
  d.name = &name;
  d.active = active;
  d.demotable = demotable;
  d.fast_bytes = fast_bytes;
  return d;
}

TEST(Arbiter, DemotesLargestFirstAndPromotesLifoOnePerTick) {
  ArbiterOptions opt;
  opt.enabled = true;
  opt.keepalive = false;
  FastTierArbiter arb(opt, /*fast_budget_bytes=*/100);
  const std::string f0 = "f0", f1 = "f1", pinned = "pinned";

  // Scripted Step IV: each lane lands on its curve point's footprint, and
  // the trivial bound restores its unconstrained footprint.
  const std::vector<CurveStep> curve0 = {{1, 50}, {3, 20}};
  const std::vector<CurveStep> curve1 = {{2, 30}};
  struct Call {
    size_t lane;
    int rung;
    RetierBound bound;
  };
  std::vector<Call> calls;
  const auto apply = [&](size_t lane, int rung,
                         const RetierBound& bound) -> std::optional<u64> {
    calls.push_back({lane, rung, bound});
    if (bound.trivial()) return lane == 0 ? u64{70} : u64{60};
    for (const CurveStep& step : lane == 0 ? curve0 : curve1)
      if (step.prefix == *bound.min_descent_prefix) return step.fast_bytes;
    return std::nullopt;
  };
  const auto lane = [](size_t index, const std::string& name, u64 fast,
                       std::vector<CurveStep> curve) {
    FastTierArbiter::LaneDemand d = demand(index, name, fast);
    d.curve = std::move(curve);
    return d;
  };

  // Tick 0: f0=70 + f1=60 + pinned 40 = 170 > 100. The largest lane
  // always moves next: f0 -> 50 (150), then f1 (60 > 50) -> 30 (120), then
  // f0 again (50 > 30) -> 20 (90), each one curve point down.
  arb.tick(0,
           {lane(0, f0, 70, curve0), lane(1, f1, 60, curve1),
            demand(2, pinned, 40, true, false)},
           apply);
  ASSERT_EQ(calls.size(), 3u);
  EXPECT_EQ(calls[0].lane, 0u);
  EXPECT_EQ(calls[0].rung, 1);
  EXPECT_EQ(calls[0].bound.min_descent_prefix, std::optional<size_t>(1));
  EXPECT_EQ(calls[1].lane, 1u);
  EXPECT_EQ(calls[1].rung, 1);
  EXPECT_EQ(calls[1].bound.min_descent_prefix, std::optional<size_t>(2));
  EXPECT_EQ(calls[2].lane, 0u);
  EXPECT_EQ(calls[2].rung, 2);
  EXPECT_EQ(calls[2].bound.min_descent_prefix, std::optional<size_t>(3));
  EXPECT_EQ(arb.rung(0), 2);
  EXPECT_EQ(arb.rung(1), 1);
  EXPECT_EQ(arb.resident_fast_bytes(), 90u);
  EXPECT_FALSE(arb.admission_closed());

  // Tick 1: the pinned lane is gone (50 fits). Recovery promotes exactly
  // one step, the most recent demotion first: f0 back to its depth-1
  // prefix (50 bytes; 80 fits).
  calls.clear();
  arb.tick(1, {lane(0, f0, 20, {}), lane(1, f1, 30, {})}, apply);
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].lane, 0u);
  EXPECT_EQ(calls[0].rung, 1);
  EXPECT_EQ(calls[0].bound.min_descent_prefix, std::optional<size_t>(1));
  EXPECT_EQ(arb.rung(0), 1);
  EXPECT_EQ(arb.resident_fast_bytes(), 80u);

  // Tick 2: next in LIFO order is f1, whose unconstrained 60 bytes would
  // make 110 > 100: hysteresis holds it, and f0's promotion beneath it
  // (which would fit exactly) may not jump the stack.
  calls.clear();
  arb.tick(2, {lane(0, f0, 50, {{3, 20}}), lane(1, f1, 30, {})}, apply);
  EXPECT_TRUE(calls.empty());
  EXPECT_EQ(arb.rung(0), 1);
  EXPECT_EQ(arb.rung(1), 1);

  const ArbiterReport r = arb.report();
  EXPECT_EQ(r.demotions, 3u);
  EXPECT_EQ(r.promotions, 1u);
  EXPECT_EQ(r.peak_resident_fast_bytes, 170u);
  EXPECT_EQ(r.events.size(), 4u);
}

TEST(Arbiter, EvictsWarmthBeforeDemotingAnyone) {
  ArbiterOptions opt;
  opt.enabled = true;
  opt.keepalive = true;
  FastTierArbiter arb(opt, 100);
  const std::string active = "active", finished = "finished";
  size_t retiers = 0;
  const auto apply = [&](size_t, int,
                         const RetierBound&) -> std::optional<u64> {
    ++retiers;
    return std::nullopt;
  };

  // The finished lane parks a 50-byte warm VM; with the active lane's 60
  // bytes the fleet is 10 over budget. Rung A (evict warmth) must resolve
  // it without a single re-tier.
  FastTierArbiter::LaneDemand done = demand(1, finished, 50, false, false);
  done.just_finished = true;
  done.cold_cost_ns = ms(1);
  arb.tick(0, {demand(0, active, 60), done}, apply);

  EXPECT_EQ(retiers, 0u);
  EXPECT_EQ(arb.resident_fast_bytes(), 60u);
  const ArbiterReport r = arb.report();
  EXPECT_EQ(r.keepalive_evictions, 1u);
  EXPECT_EQ(r.demotions, 0u);
  ASSERT_EQ(r.events.size(), 1u);
  EXPECT_EQ(r.events[0].action, ArbiterAction::kEvictWarm);
  EXPECT_EQ(r.events[0].function, finished);
}

TEST(Arbiter, ClosesAdmissionWhenLadderExhaustedAndReopens) {
  ArbiterOptions opt;
  opt.enabled = true;
  FastTierArbiter arb(opt, 100);
  const std::string f0 = "profiling";
  size_t retiers = 0;
  const auto apply = [&](size_t, int,
                         const RetierBound&) -> std::optional<u64> {
    ++retiers;
    return std::nullopt;
  };

  // A profiling lane (not demotable) pins 200 bytes: nothing to evict,
  // nothing to demote -> rung C.
  arb.tick(0, {demand(0, f0, 200, true, false)}, apply);
  EXPECT_TRUE(arb.admission_closed());
  EXPECT_EQ(retiers, 0u);

  // Sustained pressure is one closure, not one per tick.
  arb.tick(1, {demand(0, f0, 200, true, false)}, apply);
  EXPECT_EQ(arb.report().admission_closures, 1u);

  // Pressure subsides (the lane tiered at 50 bytes): admission reopens.
  arb.tick(2, {demand(0, f0, 50, true, false)}, apply);
  EXPECT_FALSE(arb.admission_closed());

  const auto& ev = arb.report().events;
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[0].action, ArbiterAction::kCloseAdmission);
  EXPECT_EQ(ev[1].action, ArbiterAction::kOpenAdmission);
}

TEST(Arbiter, PrewarmHintsSteerRungAEvictions) {
  // Prewarm handshake: two identical warm VMs park at tick 0; "alpha"
  // carries a predicted-soon reuse hint, "zeta" none. Under pressure the
  // unhinted VM must go first — even though the name tie-break alone would
  // have evicted "alpha" (KeepAlive.EvictionTieBreaksOnFunctionId).
  const std::string alpha = "alpha", zeta = "zeta", busy = "busy";
  const auto park = [&](FastTierArbiter& arb) {
    FastTierArbiter::LaneDemand soon = demand(0, alpha, 40, false, false);
    soon.just_finished = true;
    soon.cold_cost_ns = ms(1);
    soon.predicted_reuse_gap_ns = ms(1);
    FastTierArbiter::LaneDemand plain = demand(1, zeta, 40, false, false);
    plain.just_finished = true;
    plain.cold_cost_ns = ms(1);
    const auto apply = [](size_t, int, const RetierBound&) {
      return std::optional<u64>{};
    };
    arb.tick(0, {soon, plain}, apply);  // 80 <= 100: both stay warm
    arb.tick(1, {demand(2, busy, 60, true, false)}, apply);  // 140 > 100
  };

  ArbiterOptions opt;
  opt.enabled = true;
  FastTierArbiter hinted(opt, 100);
  park(hinted);
  const ArbiterReport r = hinted.report();
  EXPECT_EQ(r.keepalive_evictions, 1u);
  ASSERT_FALSE(r.events.empty());
  EXPECT_EQ(r.events.back().action, ArbiterAction::kEvictWarm);
  EXPECT_EQ(r.events.back().function, zeta);
  EXPECT_EQ(r.warm_count, 1u);
}

// ---------------------------------------------------------------------------
// Engine integration: bounded queues, deadlines, watchdog, arbiter ladder,
// and cross-thread-count determinism of every ledger.
// ---------------------------------------------------------------------------

std::unique_ptr<PlatformEngine> single_lane(const EngineOptions& opts,
                                            std::vector<Request> stream,
                                            const std::string& suffix = "") {
  auto engine = std::make_unique<PlatformEngine>(
      SystemConfig::paper_default(), PricingPlan{}, opts);
  FunctionSpec spec = workloads::all_functions()[0];
  spec.name += suffix;
  EXPECT_TRUE(engine
                  ->add(FunctionRegistration(std::move(spec))
                            .policy(PolicyKind::kToss)
                            .toss(fast_toss())
                            .seed(42),
                        std::move(stream))
                  .ok());
  return engine;
}

TEST(Overload, BoundedQueueNeverExceedsDepthAndShedsDeterministically) {
  // ~10x offered load: microsecond arrival gaps against millisecond-scale
  // service times, into a queue bounded at depth 4.
  constexpr size_t kDepth = 4;
  constexpr size_t kRequests = 60;
  EngineOptions opts;
  opts.max_lane_queue = kDepth;
  opts.chunk = 4;
  const auto stream = [] {
    return RequestGenerator::open_loop(RequestGenerator::round_robin(60, 9),
                                       us(1), 0, 9);
  };

  auto engine = single_lane(opts, stream());
  const EngineReport report = engine->run(1).value();
  ASSERT_EQ(report.functions.size(), 1u);
  const FunctionReport& f = report.functions[0];

  EXPECT_EQ(f.overload.offered, kRequests);
  EXPECT_LE(f.overload.queue_peak, kDepth);
  EXPECT_GT(f.overload.total_shed(), 0u);
  EXPECT_EQ(f.overload.offered,
            f.overload.completed + f.overload.total_shed());
  EXPECT_EQ(f.overload.completed, f.stats.invocations);
  EXPECT_EQ(f.shed_events.size(), f.overload.total_shed());
  for (const ShedEvent& e : f.shed_events)
    EXPECT_EQ(e.cause, ShedCause::kQueueFull);

  // Same configuration, fresh engine: the whole report is reproducible.
  EXPECT_TRUE(single_lane(opts, stream())->run(1).value() == report);

  // Oldest-drop keeps newcomers: same bound, different victims.
  EngineOptions oldest = opts;
  oldest.drop_policy = DropPolicy::kOldestDrop;
  const EngineReport od = single_lane(oldest, stream())->run(1).value();
  const FunctionReport& g = od.functions[0];
  EXPECT_LE(g.overload.queue_peak, kDepth);
  EXPECT_EQ(g.overload.offered,
            g.overload.completed + g.overload.total_shed());
  EXPECT_GT(g.overload.total_shed(), 0u);
  EXPECT_NE(g.shed_events, f.shed_events);
  // The newest request always wins a slot under oldest-drop.
  for (const ShedEvent& e : g.shed_events)
    EXPECT_NE(e.request_index, kRequests - 1);
}

TEST(Overload, DeadlineExpiredWorkIsShedBeforeRestore) {
  EngineOptions opts;
  opts.enforce_deadlines = true;
  auto engine = single_lane(
      opts, RequestGenerator::open_loop(RequestGenerator::round_robin(30, 5),
                                        us(1), /*relative_deadline_ns=*/us(200),
                                        5));
  const EngineReport report = engine->run(1).value();
  const FunctionReport& f = report.functions[0];

  // The first pop starts before its deadline and is served (late: an SLO
  // miss, not a shed); everything queued behind a millisecond-scale service
  // time is already SLO-dead and must be shed without costing a restore.
  EXPECT_GE(f.overload.completed, 1u);
  EXPECT_GT(f.overload.shed_by(ShedCause::kDeadlineExpired), 0u);
  EXPECT_GE(f.overload.deadline_misses, 1u);
  EXPECT_EQ(f.stats.invocations, f.overload.completed);
  EXPECT_EQ(f.outcomes.size(), f.overload.completed);

  // Shed requests surface as typed, non-transient rejections.
  ASSERT_FALSE(f.shed_events.empty());
  const Error err = shed_error(f.name, f.shed_events[0]);
  EXPECT_EQ(err.code(), ErrorCode::kOverloaded);
  EXPECT_NE(std::string(err.what()).find("shed"), std::string::npos);
  EXPECT_FALSE(is_transient(ErrorCode::kOverloaded));

  // The metrics JSON mirrors the ledger under the versioned layout.
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"schema\":" +
                      std::to_string(EngineReport::kJsonSchemaVersion)),
            std::string::npos);
  EXPECT_NE(json.find("\"host\":\"host0\""), std::string::npos);
  EXPECT_NE(json.find("\"overload\":{"), std::string::npos);
  EXPECT_NE(json.find("\"shed_deadline\":"), std::string::npos);
}

TEST(Overload, GlobalQueueBoundTrimsTheLongestLane) {
  EngineOptions opts;
  opts.max_global_queue = 6;
  opts.chunk = 2;
  auto engine = std::make_unique<PlatformEngine>(
      SystemConfig::paper_default(), PricingPlan{}, opts);
  const std::vector<FunctionSpec> base = workloads::all_functions();
  for (size_t i = 0; i < 3; ++i) {
    FunctionSpec spec = base[i % base.size()];
    spec.name += "#" + std::to_string(i);
    ASSERT_TRUE(engine
                    ->add(FunctionRegistration(std::move(spec))
                              .policy(PolicyKind::kToss)
                              .toss(fast_toss())
                              .seed(7 + i),
                          RequestGenerator::open_loop(
                              RequestGenerator::round_robin(40, 11 + i),
                              us(1), 0, 11 + i))
                    .ok());
  }
  const EngineReport report = engine->run(2).value();
  u64 shed_global = 0;
  for (const FunctionReport& f : report.functions) {
    shed_global += f.overload.shed_by(ShedCause::kGlobalOverload);
    EXPECT_EQ(f.overload.offered,
              f.overload.completed + f.overload.total_shed())
        << f.name;
  }
  EXPECT_GT(shed_global, 0u);
  EXPECT_EQ(report.total_shed(), shed_global);
}

TEST(Overload, WatchdogTripsTheLaneBreaker) {
  EngineOptions opts;
  opts.watchdog_chunk_budget_ns = 1;  // any non-empty chunk blows the bound
  auto engine = single_lane(opts, RequestGenerator::round_robin(20, 3));
  const EngineReport report = engine->run(1).value();
  const FunctionReport& f = report.functions[0];

  EXPECT_GT(f.overload.watchdog_trips, 0u);
  EXPECT_EQ(f.overload.completed, 20u);  // degraded, not dropped
  const ServerlessPlatform* host = engine->lane_host(f.name);
  ASSERT_NE(host, nullptr);
  ASSERT_NE(host->breaker(f.name), nullptr);
  EXPECT_GT(host->breaker(f.name)->opened_count(), 0u);
  // A tripped breaker degrades the invocations it then serves.
  EXPECT_GT(f.stats.breaker_suspended, 0u);
}

TEST(Overload, ArbiterDemotesUntilFleetFitsAndRecovers) {
  // Probe the unconstrained tiered footprint of the spec all three lanes
  // share (same seed + stream prefix -> identical placements).
  u64 unconstrained = 0;
  {
    auto probe = std::make_unique<PlatformEngine>(SystemConfig::paper_default(),
                                                  PricingPlan{},
                                                  EngineOptions{});
    FunctionSpec spec = workloads::all_functions()[0];
    const std::string name = spec.name;
    ASSERT_TRUE(probe
                    ->add(FunctionRegistration(std::move(spec))
                              .policy(PolicyKind::kToss)
                              .toss(fast_toss())
                              .seed(42),
                          RequestGenerator::round_robin(40, 9))
                    .ok());
    ASSERT_TRUE(probe->run(1).ok());
    ASSERT_NE(probe->toss_state(name), nullptr);
    ASSERT_EQ(probe->toss_state(name)->phase(), TossPhase::kTiered);
    unconstrained = probe->toss_state(name)->fast_resident_bytes();
  }
  ASSERT_GT(unconstrained, 0u);

  // Budget fits 1.5 identical lanes: with three active, the arbiter must
  // demote; once two finish, the survivor gets promoted back.
  const u64 budget = unconstrained + unconstrained / 2;
  EngineOptions opts;
  opts.chunk = 2;
  opts.arbiter.enabled = true;
  opts.arbiter.fast_budget_bytes = budget;
  opts.arbiter.keepalive = false;
  auto engine = std::make_unique<PlatformEngine>(SystemConfig::paper_default(),
                                                 PricingPlan{}, opts);
  const size_t lengths[] = {80, 40, 40};
  std::vector<std::string> names;
  for (size_t i = 0; i < 3; ++i) {
    FunctionSpec spec = workloads::all_functions()[0];
    spec.name += "#" + std::to_string(i);
    names.push_back(spec.name);
    ASSERT_TRUE(engine
                    ->add(FunctionRegistration(std::move(spec))
                              .policy(PolicyKind::kToss)
                              .toss(fast_toss())
                              .seed(42),
                          RequestGenerator::round_robin(lengths[i], 9))
                    .ok());
  }
  const EngineReport report = engine->run(2).value();
  const ArbiterReport& arb = report.arbiter;

  EXPECT_GE(arb.demotions, 1u);
  EXPECT_GE(arb.promotions, 1u);
  EXPECT_GT(arb.peak_resident_fast_bytes, budget);
  EXPECT_LE(arb.final_resident_fast_bytes, budget);
  EXPECT_FALSE(arb.admission_closed);
  // Profiling pins whole guest images far past the budget, and nothing is
  // demotable yet: the ladder bottoms out in a (harmless — everything had
  // already been admitted) admission closure, then reopens.
  EXPECT_GE(arb.admission_closures, 1u);

  // Ledger totals match the counters, and within an epoch warmth eviction
  // (rung A) never follows a demotion (rung B).
  u64 demotes = 0, promotes = 0, evictions = 0;
  for (size_t i = 0; i < arb.events.size(); ++i) {
    const ArbiterEvent& e = arb.events[i];
    if (e.action == ArbiterAction::kDemote) ++demotes;
    if (e.action == ArbiterAction::kPromote) ++promotes;
    if (e.action == ArbiterAction::kEvictWarm) {
      ++evictions;
      for (size_t j = 0; j < i; ++j) {
        if (arb.events[j].epoch == e.epoch) {
          EXPECT_NE(arb.events[j].action, ArbiterAction::kDemote);
        }
      }
    }
  }
  EXPECT_EQ(demotes, arb.demotions);
  EXPECT_EQ(promotes, arb.promotions);
  EXPECT_EQ(evictions, arb.keepalive_evictions);

  // Nothing was lost to the ladder: every admitted request completed, and
  // the long-running survivor ended back at an unconstrained placement.
  for (const FunctionReport& f : report.functions) {
    EXPECT_EQ(f.overload.completed, f.overload.offered) << f.name;
    EXPECT_EQ(f.overload.total_shed(), 0u) << f.name;
  }
  const TossFunction* survivor = engine->toss_state(names[0]);
  ASSERT_NE(survivor, nullptr);
  EXPECT_TRUE(survivor->retier_bound().trivial());
  u64 lane_demotions = 0, lane_promotions = 0;
  for (const FunctionReport& f : report.functions) {
    lane_demotions += f.overload.demotions;
    lane_promotions += f.overload.promotions;
  }
  EXPECT_EQ(lane_demotions, arb.demotions);
  EXPECT_EQ(lane_promotions, arb.promotions);
}

TEST(Overload, LadderHostDemotesOneRungAtATime) {
  // On a 3-tier CXL host every demotion in the engine-level ledger must
  // move its function exactly one curve step down from where it stood and
  // free fast-tier bytes, and every promotion must move it one step up.
  // matmul: the Table-I function that keeps a rank-0 sliver even under the
  // CXL host's milder offload penalty, so there is something to demote.
  u64 unconstrained = 0;
  const SystemConfig cfg = SystemConfig::cxl_host();
  {
    auto probe = std::make_unique<PlatformEngine>(cfg, PricingPlan{},
                                                  EngineOptions{});
    FunctionSpec spec = workloads::matmul();
    const std::string name = spec.name;
    ASSERT_TRUE(probe
                    ->add(FunctionRegistration(std::move(spec))
                              .policy(PolicyKind::kToss)
                              .toss(fast_toss())
                              .seed(42),
                          RequestGenerator::round_robin(40, 9))
                    .ok());
    ASSERT_TRUE(probe->run(1).ok());
    ASSERT_NE(probe->toss_state(name), nullptr);
    ASSERT_EQ(probe->toss_state(name)->phase(), TossPhase::kTiered);
    unconstrained = probe->toss_state(name)->fast_resident_bytes();
  }
  ASSERT_GT(unconstrained, 0u);

  // A budget of a quarter of one lane's unconstrained footprint: one curve
  // step per lane cannot fit three lanes, so the walk must go deeper.
  EngineOptions opts;
  opts.chunk = 2;
  opts.arbiter.enabled = true;
  opts.arbiter.fast_budget_bytes = std::max<u64>(unconstrained / 4, 1);
  opts.arbiter.keepalive = false;
  auto engine = std::make_unique<PlatformEngine>(cfg, PricingPlan{}, opts);
  const size_t lengths[] = {80, 40, 40};
  for (size_t i = 0; i < 3; ++i) {
    FunctionSpec spec = workloads::matmul();
    spec.name += "#" + std::to_string(i);
    ASSERT_TRUE(engine
                    ->add(FunctionRegistration(std::move(spec))
                              .policy(PolicyKind::kToss)
                              .toss(fast_toss())
                              .seed(42),
                          RequestGenerator::round_robin(lengths[i], 9))
                    .ok());
  }
  const EngineReport report = engine->run(2).value();
  const ArbiterReport& arb = report.arbiter;
  ASSERT_GE(arb.demotions, 2u);

  // A demotion is the only action in its tick that can follow another one
  // (keep-alive is off): each must leave the fleet strictly smaller than
  // the event before it in the same tick. A tick's first event has no
  // recorded predecessor.
  std::map<std::string, int> rung;
  int deepest = 0;
  u64 epoch = 0;
  std::optional<u64> before;
  for (const ArbiterEvent& e : arb.events) {
    if (e.epoch != epoch) before.reset();
    if (e.action == ArbiterAction::kDemote) {
      EXPECT_EQ(e.rung, rung[e.function] + 1) << e.function;
      if (before) {
        EXPECT_LT(e.resident_bytes, *before) << e.function;
      }
      rung[e.function] = e.rung;
      deepest = std::max(deepest, e.rung);
    } else if (e.action == ArbiterAction::kPromote) {
      EXPECT_EQ(e.rung, rung[e.function] - 1) << e.function;
      rung[e.function] = e.rung;
    }
    EXPECT_GE(e.rung, 0);
    epoch = e.epoch;
    before = e.resident_bytes;
  }
  // The squeeze was tight enough to walk some lane two or more curve
  // steps down.
  EXPECT_GE(deepest, 2);

  // The ladder degrades placements; it never drops admitted work.
  for (const FunctionReport& f : report.functions) {
    EXPECT_EQ(f.overload.completed, f.overload.offered) << f.name;
    EXPECT_EQ(f.overload.total_shed(), 0u) << f.name;
  }
}

std::unique_ptr<PlatformEngine> overload_fleet(
    u64 seed, const SystemConfig& cfg = SystemConfig::paper_default()) {
  EngineOptions opts;
  opts.chunk = 3;
  opts.max_lane_queue = 6;
  opts.max_global_queue = 16;
  opts.enforce_deadlines = true;
  opts.arbiter.enabled = true;
  opts.arbiter.fast_budget_bytes = 0;  // resolve to installed DRAM capacity
  auto engine = std::make_unique<PlatformEngine>(cfg, PricingPlan{}, opts);
  const std::vector<FunctionSpec> base = workloads::all_functions();
  const PolicyKind kinds[] = {PolicyKind::kToss, PolicyKind::kToss,
                              PolicyKind::kReap, PolicyKind::kVanilla};
  for (size_t i = 0; i < 4; ++i) {
    FunctionSpec spec = base[i % base.size()];
    spec.name += "#" + std::to_string(i);
    auto stream = RequestGenerator::open_loop(
        RequestGenerator::round_robin(50, mix_seed(seed, spec.name)), us(10),
        ms(5), mix_seed(seed, spec.name));
    EXPECT_TRUE(engine
                    ->add(FunctionRegistration(std::move(spec))
                              .policy(kinds[i])
                              .toss(fast_toss())
                              .seed(seed + i),
                          std::move(stream))
                    .ok());
  }
  return engine;
}

TEST(Overload, LedgersBitIdenticalAcrossThreadCountsAndSeeds) {
  for (u64 seed : {21u, 22u, 23u}) {
    const EngineReport serial = overload_fleet(seed)->run(1).value();
    const EngineReport parallel = overload_fleet(seed)->run(4).value();

    EXPECT_TRUE(serial == parallel) << "seed " << seed;
    for (const FunctionReport& f : serial.functions)
      EXPECT_GT(f.overload.offered, 0u) << f.name;
    // The load is genuinely overloading: something was shed somewhere.
    EXPECT_GT(serial.total_shed(), 0u) << "seed " << seed;
  }
}

TEST(Overload, LadderLedgersBitIdenticalAcrossThreadCounts) {
  // The determinism contract holds beyond the paper's two tiers: the same
  // overload fleet on a 3-tier CXL host sheds, demotes and recovers
  // identically for any worker thread count.
  const SystemConfig cfg = SystemConfig::cxl_host();
  const EngineReport serial = overload_fleet(33, cfg)->run(1).value();
  const EngineReport parallel = overload_fleet(33, cfg)->run(4).value();
  EXPECT_TRUE(serial == parallel);
}

TEST(Overload, AddValidatesArrivalStreams) {
  EngineOptions opts;
  opts.max_lane_queue = 4;
  PlatformEngine engine(SystemConfig::paper_default(), PricingPlan{}, opts);
  FunctionSpec spec = workloads::all_functions()[0];

  std::vector<Request> unsorted = RequestGenerator::round_robin(4, 1);
  unsorted[1].arrival_ns = ms(2);
  unsorted[2].arrival_ns = ms(1);  // out of order
  auto bad = engine.add(FunctionRegistration(spec).policy(PolicyKind::kToss),
                        unsorted);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), ErrorCode::kInvalidRequest);

  std::vector<Request> negative = RequestGenerator::round_robin(2, 1);
  negative[0].deadline_ns = -1;
  auto neg = engine.add(FunctionRegistration(spec).policy(PolicyKind::kToss),
                        negative);
  ASSERT_FALSE(neg.ok());
  EXPECT_EQ(neg.code(), ErrorCode::kInvalidRequest);
}

TEST(Overload, KnobFreeEngineConservesEveryRequest) {
  // Every knob at its default: the one scheduler still keeps its admission
  // ledger, and all it does is conserve — each request sent is offered,
  // admitted and served exactly once, even with open-loop arrivals queuing
  // behind ms-scale service, and nothing is shed.
  constexpr size_t kLanes = 3;
  constexpr size_t kRequests = 20;
  PlatformEngine engine;
  const std::vector<FunctionSpec> base = workloads::all_functions();
  for (size_t i = 0; i < kLanes; ++i) {
    auto stream = RequestGenerator::open_loop(
        RequestGenerator::round_robin(kRequests, 70 + i), us(100), ms(5),
        70 + i);
    ASSERT_TRUE(engine
                    .add(FunctionRegistration(base[i])
                             .policy(PolicyKind::kToss)
                             .toss(fast_toss())
                             .seed(42 + i),
                         std::move(stream))
                    .ok());
  }
  const EngineReport report = engine.run(2).value();
  ASSERT_EQ(report.functions.size(), kLanes);
  for (const FunctionReport& f : report.functions) {
    EXPECT_EQ(f.overload.offered, kRequests) << f.name;
    EXPECT_EQ(f.overload.admitted, kRequests) << f.name;
    EXPECT_EQ(f.overload.completed, kRequests) << f.name;
    EXPECT_EQ(f.stats.invocations, kRequests) << f.name;
    EXPECT_EQ(f.overload.total_shed(), 0u) << f.name;
    EXPECT_TRUE(f.shed_events.empty()) << f.name;
    EXPECT_GT(f.overload.queue_peak, 1u) << f.name;  // requests did queue
  }
  EXPECT_TRUE(report.arbiter.events.empty());
}

}  // namespace
}  // namespace toss
