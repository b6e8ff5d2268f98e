// Tests for SLO-driven QoS classes (DESIGN.md §14): the SLO -> Eq-1
// threshold derivation, the demotion curve Step III publishes for the
// arbiter's continuous demotion, the arbiter's class order (bronze walks
// its curve to exhaustion before gold moves, per-class admission gates with
// gold-protecting hysteresis) and a seeded property test of the arbiter,
// EDF pop order inside a lane, bronze-before-gold shedding at the global
// queue bound, the per-class attainment ledgers in the metrics JSON —
// and the determinism contract: with classes set every ledger stays
// bit-identical across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/merge.hpp"
#include "core/optimizer.hpp"
#include "platform/engine.hpp"
#include "util/rng.hpp"
#include "workloads/functions.hpp"
#include "workloads/registry.hpp"

namespace toss {
namespace {

TossOptions fast_toss() {
  TossOptions opt;
  opt.stable_invocations = 4;
  opt.max_profiling_invocations = 30;
  return opt;
}

// ---------------------------------------------------------------------------
// Vocabulary: the qos.hpp names other layers key on.
// ---------------------------------------------------------------------------

TEST(QosVocab, ParseNamesRanksAndDefaults) {
  EXPECT_EQ(parse_qos_class("gold"), QosClass::kGold);
  EXPECT_EQ(parse_qos_class("bronze"), QosClass::kBronze);
  EXPECT_EQ(parse_qos_class("none"), QosClass::kNone);
  EXPECT_EQ(parse_qos_class(""), QosClass::kNone);
  EXPECT_FALSE(parse_qos_class("silver").has_value());

  // Degradation order: bronze absorbs first, unclassed next, gold last.
  EXPECT_LT(qos_shed_rank(QosClass::kBronze), qos_shed_rank(QosClass::kNone));
  EXPECT_LT(qos_shed_rank(QosClass::kNone), qos_shed_rank(QosClass::kGold));

  EXPECT_GT(qos_default_slo_slowdown(QosClass::kGold), 0.0);
  EXPECT_GT(qos_default_slo_slowdown(QosClass::kBronze),
            qos_default_slo_slowdown(QosClass::kGold));
  EXPECT_EQ(qos_default_slo_slowdown(QosClass::kNone), 0.0);

  // The JSON counter keys predate the enum and are frozen for artifact
  // consumers; a rename here is a schema break.
  EXPECT_STREQ(shed_cause_json_key(ShedCause::kQueueFull), "shed_queue_full");
  EXPECT_STREQ(shed_cause_json_key(ShedCause::kGlobalOverload),
               "shed_queue_global");
  EXPECT_STREQ(shed_cause_json_key(ShedCause::kAdmissionClosed),
               "shed_admission");
  EXPECT_STREQ(shed_cause_json_key(ShedCause::kDeadlineExpired),
               "shed_deadline");
  EXPECT_STREQ(shed_cause_json_key(ShedCause::kHostLost), "shed_host_lost");
}

TEST(QosVocab, AttainmentLedgerArithmetic) {
  QosAttainment a;
  EXPECT_EQ(a.attainment(), 1.0);  // nothing offered, nothing violated
  a.offered = 10;
  a.completed = 8;
  a.slo_met = 6;
  EXPECT_DOUBLE_EQ(a.attainment(), 0.6);
}

// ---------------------------------------------------------------------------
// SLO -> Eq-1 threshold derivation and the demotion curve (Step III).
// ---------------------------------------------------------------------------

TEST(QosSlo, DerivedThresholdIsTheCheapestAdmissibleStop) {
  // Synthetic sweep: slowdown 2% / 5% / 20%, cost falling 0.9 / 0.7 / 0.5.
  BinProfile profile;
  const double slowdowns[] = {0.02, 0.05, 0.20};
  const double costs[] = {0.9, 0.7, 0.5};
  for (size_t k = 0; k < 3; ++k) {
    BinStep s;
    s.cumulative_slowdown = slowdowns[k];
    s.cumulative_cost = costs[k];
    profile.steps.push_back(s);
  }
  // A 10% SLO admits the first two steps; the cheaper one (5%, 0.7) wins
  // and its slowdown becomes the effective threshold.
  EXPECT_DOUBLE_EQ(derive_slowdown_threshold(profile, 1.0, 0.10), 0.05);
  // A 1% SLO admits nothing: the placement stays all-fast.
  EXPECT_DOUBLE_EQ(derive_slowdown_threshold(profile, 1.0, 0.01), 0.0);
  // An unbounded SLO walks to the global minimum.
  EXPECT_DOUBLE_EQ(derive_slowdown_threshold(profile, 1.0, 1.0), 0.20);
  // A step that fits the SLO but raises cost above the base is skipped.
  EXPECT_DOUBLE_EQ(derive_slowdown_threshold(profile, 0.65, 0.10), 0.0);
}

class QosAnalysisTest : public ::testing::Test {
 protected:
  SystemConfig cfg = SystemConfig::paper_default();
  FunctionRegistry reg = FunctionRegistry::table1();

  PageAccessCounts unified_for(const FunctionModel& m) {
    PageAccessCounts unified(m.guest_pages());
    for (int input = 0; input < kNumInputs; ++input) {
      for (u64 rep = 0; rep < 2; ++rep) {
        const Invocation inv = m.invoke(input, 800 + rep);
        unified.merge_max(
            PageAccessCounts::from_trace(inv.trace, m.guest_pages()));
      }
    }
    unified.scale(DamonConfig{}.count_scale);
    return unified;
  }

  static u64 fast_bytes_of(const TieringDecision& d) {
    return bytes_for_pages(d.placement.pages_per_rank(kMaxTiers)[0]);
  }
};

TEST_F(QosAnalysisTest, SloDrivesTheThresholdAndStaysWithinIt) {
  const FunctionModel& m = *reg.find("pagerank");
  const PageAccessCounts unified = unified_for(m);
  const Invocation rep = m.invoke(3, 802);

  TieringOptions slo;
  slo.slo_slowdown = 0.10;
  const TieringDecision d = analyze_pattern(cfg, unified, rep, slo);
  ASSERT_TRUE(d.derived_threshold.has_value());
  EXPECT_LE(*d.derived_threshold, 0.10);
  EXPECT_LE(d.expected_slowdown, 0.10 + 0.02);

  // The derivation is the closed loop over Eq 1: handing the derived
  // threshold back as an explicit bound reproduces the same configuration.
  TieringOptions explicit_opt;
  explicit_opt.slowdown_threshold = *d.derived_threshold;
  const TieringDecision e = analyze_pattern(cfg, unified, rep, explicit_opt);
  EXPECT_EQ(d.chosen_prefix, e.chosen_prefix);
  EXPECT_FALSE(e.derived_threshold.has_value());

  // An explicit threshold always wins over the SLO.
  TieringOptions both;
  both.slo_slowdown = 0.10;
  both.slowdown_threshold = 0.0;
  const TieringDecision tight = analyze_pattern(cfg, unified, rep, both);
  EXPECT_FALSE(tight.derived_threshold.has_value());
  EXPECT_NEAR(tight.expected_slowdown, 0.0, 1e-6);
}

TEST_F(QosAnalysisTest, DemotionCurveDescendsInFootprintAndPrefix) {
  const FunctionModel& m = *reg.find("pagerank");
  TieringOptions slo;
  slo.slo_slowdown = 0.10;
  const TieringDecision d =
      analyze_pattern(cfg, unified_for(m), m.invoke(3, 802), slo);
  // pagerank keeps a large fast residue under a 10% SLO, so descents
  // remain below the chosen configuration.
  ASSERT_FALSE(d.demotion_curve.empty());

  u64 prev_fast = fast_bytes_of(d);
  size_t prev_prefix = d.chosen_prefix;
  double prev_slowdown = d.expected_slowdown;
  for (const CostCurvePoint& p : d.demotion_curve) {
    EXPECT_GT(p.prefix, prev_prefix);        // strictly deeper in the sweep
    EXPECT_LT(p.fast_bytes, prev_fast);      // strictly smaller footprint
    EXPECT_GE(p.slowdown, prev_slowdown - 1e-9);  // cumulative, so monotone
    prev_prefix = p.prefix;
    prev_fast = p.fast_bytes;
    prev_slowdown = p.slowdown;
  }
  // The curve bottoms out at an empty fast tier: the deepest point has
  // every pass-1 descent applied.
  EXPECT_EQ(d.demotion_curve.back().fast_bytes, 0u);
}

TEST_F(QosAnalysisTest, MinDescentPrefixLandsOnTheCurvePoint) {
  const FunctionModel& m = *reg.find("pagerank");
  const PageAccessCounts unified = unified_for(m);
  const Invocation rep = m.invoke(3, 802);
  TieringOptions slo;
  slo.slo_slowdown = 0.10;
  const TieringDecision d = analyze_pattern(cfg, unified, rep, slo);
  ASSERT_FALSE(d.demotion_curve.empty());
  const CostCurvePoint& next = d.demotion_curve.front();

  // Re-entering Step III at the next curve point (what the QoS arbiter's
  // ApplyRung does) must land exactly on that point's footprint — past the
  // SLO preference, which fitting the budget outranks under duress.
  TieringOptions demoted = slo;
  demoted.min_descent_prefix = next.prefix;
  const TieringDecision e = analyze_pattern(cfg, unified, rep, demoted);
  EXPECT_GE(e.chosen_prefix, next.prefix);
  EXPECT_EQ(fast_bytes_of(e), next.fast_bytes);
  EXPECT_LT(fast_bytes_of(e), fast_bytes_of(d));
}

// ---------------------------------------------------------------------------
// FastTierArbiter class order, with synthetic demands and a scripted
// re-tier.
// ---------------------------------------------------------------------------

FastTierArbiter::LaneDemand demand(size_t lane, const std::string& name,
                                   u64 fast_bytes, QosClass qos,
                                   std::vector<CurveStep> curve = {},
                                   bool demotable = true) {
  FastTierArbiter::LaneDemand d;
  d.lane = lane;
  d.name = &name;
  d.active = true;
  d.demotable = demotable;
  d.fast_bytes = fast_bytes;
  d.qos = qos;
  d.curve = std::move(curve);
  return d;
}

ArbiterOptions qos_arbiter_options() {
  ArbiterOptions opt;
  opt.enabled = true;
  opt.keepalive = false;
  return opt;
}

/// Scripted ApplyRung: answer each re-tier with the bound's curve
/// footprint, recording (lane, prefix) pairs.
struct CurveScript {
  std::vector<std::pair<size_t, size_t>> calls;  ///< (lane, min prefix)
  std::vector<std::pair<size_t, u64>> bytes;     ///< prefix -> fast bytes

  FastTierArbiter::ApplyRung hook() {
    return [this](size_t lane, int,
                  const RetierBound& bound) -> std::optional<u64> {
      const size_t prefix = bound.min_descent_prefix.value_or(0);
      calls.push_back({lane, prefix});
      for (const auto& [p, b] : bytes)
        if (p == prefix) return b;
      return std::nullopt;
    };
  }
};

TEST(QosArbiter, BronzeWalksItsCurveToExhaustionBeforeGoldMoves) {
  FastTierArbiter arb(qos_arbiter_options(), /*fast_budget_bytes=*/50);
  const std::string gold = "gold_fn", bronze = "bronze_fn";
  CurveScript script;
  script.bytes = {{2, 30}, {4, 10}, {1, 5}};

  // gold 40 + bronze 60 = 100 > 50. Bronze must absorb both demotions —
  // its whole curve — even though gold starts smaller.
  arb.tick(0,
           {demand(0, gold, 40, QosClass::kGold, {{1, 5}}),
            demand(1, bronze, 60, QosClass::kBronze, {{2, 30}, {4, 10}})},
           script.hook());
  ASSERT_EQ(script.calls.size(), 2u);
  EXPECT_EQ(script.calls[0], (std::pair<size_t, size_t>{1, 2}));
  EXPECT_EQ(script.calls[1], (std::pair<size_t, size_t>{1, 4}));
  EXPECT_EQ(arb.rung(1), 2);  // depth = curve steps taken
  EXPECT_EQ(arb.rung(0), 0);
  EXPECT_EQ(arb.resident_fast_bytes(), 50u);
  EXPECT_FALSE(arb.admission_closed());

  // Bronze is at its curve floor (empty remaining curve): with more
  // pressure only gold can move, and it walks its own curve point.
  script.calls.clear();
  arb.tick(1,
           {demand(0, gold, 40, QosClass::kGold, {{1, 5}}),
            demand(1, bronze, 10, QosClass::kBronze, {}),
            demand(2, bronze, 20, QosClass::kBronze, {}, /*demotable=*/false)},
           script.hook());
  ASSERT_EQ(script.calls.size(), 1u);
  EXPECT_EQ(script.calls[0], (std::pair<size_t, size_t>{0, 1}));
  EXPECT_EQ(arb.rung(0), 1);
  EXPECT_EQ(arb.resident_fast_bytes(), 35u);
}

/// Gate events in ledger order, as (action, gate class name) pairs.
std::vector<std::pair<ArbiterAction, std::string>> gate_events(
    const FastTierArbiter& arb) {
  std::vector<std::pair<ArbiterAction, std::string>> gates;
  for (const ArbiterEvent& e : arb.events())
    if (e.action == ArbiterAction::kCloseAdmission ||
        e.action == ArbiterAction::kOpenAdmission)
      gates.push_back({e.action, e.function});
  return gates;
}

/// One pinned (non-demotable) lane per class in `classes` (at most two),
/// each at `fast`.
std::vector<FastTierArbiter::LaneDemand> pinned_fleet(
    const std::vector<QosClass>& classes, u64 fast) {
  static const std::string names[] = {"pinned0", "pinned1"};
  std::vector<FastTierArbiter::LaneDemand> lanes;
  for (size_t i = 0; i < classes.size(); ++i)
    lanes.push_back(demand(i, names[i], fast, classes[i], {},
                           /*demotable=*/false));
  return lanes;
}

TEST(QosArbiter, AdmissionClosesBronzeFirstAndReopensGoldFirst) {
  FastTierArbiter arb(qos_arbiter_options(), 50);
  size_t retiers = 0;
  const auto apply = [&](size_t, int, const RetierBound&) {
    ++retiers;
    return std::optional<u64>{};
  };
  const auto pressure = [&](u64 epoch, u64 fast) {
    arb.tick(epoch, pinned_fleet({QosClass::kGold, QosClass::kBronze}, fast),
             apply);
  };

  // Tick 0: ladder exhausted -> only the bronze gate closes; gold (and
  // unclassed) traffic rides through the first pressure spike.
  pressure(0, 100);
  EXPECT_TRUE(arb.admission_closed(QosClass::kBronze));
  EXPECT_FALSE(arb.admission_closed(QosClass::kGold));
  EXPECT_FALSE(arb.admission_closed(QosClass::kNone));
  EXPECT_TRUE(arb.admission_closed());

  // Tick 1: pressure persists -> gold closes too.
  pressure(1, 100);
  EXPECT_TRUE(arb.admission_closed(QosClass::kGold));
  EXPECT_EQ(arb.report().admission_closures, 2u);

  // Tick 2: pressure subsides -> gold reopens first (hysteresis protects
  // gold readmission from bronze pressure); bronze stays closed.
  pressure(2, 10);
  EXPECT_FALSE(arb.admission_closed(QosClass::kGold));
  EXPECT_TRUE(arb.admission_closed(QosClass::kBronze));
  EXPECT_TRUE(arb.admission_closed());

  // Tick 3: bronze reopens last; admission is fully open again.
  pressure(3, 10);
  EXPECT_FALSE(arb.admission_closed(QosClass::kBronze));
  EXPECT_FALSE(arb.admission_closed());
  EXPECT_EQ(retiers, 0u);

  // The event ledger names the gates in degradation order.
  const std::vector<std::pair<ArbiterAction, std::string>> expected = {
      {ArbiterAction::kCloseAdmission, "bronze"},
      {ArbiterAction::kCloseAdmission, "gold"},
      {ArbiterAction::kOpenAdmission, "gold"},
      {ArbiterAction::kOpenAdmission, "bronze"},
  };
  EXPECT_EQ(gate_events(arb), expected);
}

TEST(QosArbiter, SingleClassHostClosesOnlyItsOwnGate) {
  // A gate closes only while some lane reads it. Gold-only and unclassed
  // hosts (kNone reads the gold gate) close one gate on the first
  // exhausted tick and reopen it on the first tick that fits; a
  // bronze-only host closes bronze alone. No phantom gate ever closes.
  const auto apply = [](size_t, int, const RetierBound&) {
    return std::optional<u64>{};
  };
  for (const QosClass cls :
       {QosClass::kGold, QosClass::kNone, QosClass::kBronze}) {
    SCOPED_TRACE(qos_class_name(cls));
    const bool bronze = cls == QosClass::kBronze;
    const std::string gate = bronze ? "bronze" : "gold";
    FastTierArbiter arb(qos_arbiter_options(), 50);
    const auto tick = [&](u64 epoch, u64 fast) {
      arb.tick(epoch, pinned_fleet({cls}, fast), apply);
    };

    tick(0, 200);
    EXPECT_TRUE(arb.admission_closed(cls));
    EXPECT_EQ(arb.admission_closed(QosClass::kBronze), bronze);
    EXPECT_EQ(arb.admission_closed(QosClass::kGold), !bronze);
    EXPECT_TRUE(arb.admission_closed());
    tick(1, 200);  // sustained pressure: the other gate stays open
    EXPECT_EQ(arb.admission_closed(QosClass::kBronze), bronze);
    EXPECT_EQ(arb.admission_closed(QosClass::kGold), !bronze);
    EXPECT_EQ(arb.report().admission_closures, 1u);
    tick(2, 10);
    EXPECT_FALSE(arb.admission_closed());

    const std::vector<std::pair<ArbiterAction, std::string>> expected = {
        {ArbiterAction::kCloseAdmission, gate},
        {ArbiterAction::kOpenAdmission, gate},
    };
    EXPECT_EQ(gate_events(arb), expected);
  }
}

TEST(QosArbiter, WithdrawnBudgetSlamsBothGatesAtOnce) {
  const auto apply = [](size_t, int, const RetierBound&) {
    return std::optional<u64>{};
  };
  // A withdrawn budget closes every present class's gate in one tick,
  // even on a fleet that fits; restoring it reopens them gold first.
  struct Case {
    std::vector<QosClass> classes;
    bool gold_gate;
    bool bronze_gate;
  };
  const Case cases[] = {
      {{QosClass::kGold, QosClass::kBronze}, true, true},
      {{QosClass::kNone, QosClass::kBronze}, true, true},
      {{QosClass::kGold}, true, false},
      {{QosClass::kNone}, true, false},
      {{QosClass::kBronze}, false, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message()
                 << c.classes.size() << " lanes, first "
                 << qos_class_name(c.classes[0]));
    FastTierArbiter arb(qos_arbiter_options(), 50);
    const auto tick = [&](u64 epoch) {
      arb.tick(epoch, pinned_fleet(c.classes, 10), apply);
    };

    arb.set_budget_withdrawn(true);
    tick(0);
    // Quarantine is not a pressure spike: no one-per-tick grace for gold.
    EXPECT_EQ(arb.admission_closed(QosClass::kBronze), c.bronze_gate);
    EXPECT_EQ(arb.admission_closed(QosClass::kGold), c.gold_gate);
    EXPECT_EQ(arb.report().admission_closures,
              u64{c.gold_gate} + u64{c.bronze_gate});

    arb.set_budget_withdrawn(false);
    tick(1);
    EXPECT_FALSE(arb.admission_closed(QosClass::kGold));
    EXPECT_EQ(arb.admission_closed(QosClass::kBronze),
              c.gold_gate && c.bronze_gate);
    tick(2);
    EXPECT_FALSE(arb.admission_closed());

    std::vector<std::pair<ArbiterAction, std::string>> expected;
    if (c.bronze_gate)
      expected.push_back({ArbiterAction::kCloseAdmission, "bronze"});
    if (c.gold_gate)
      expected.push_back({ArbiterAction::kCloseAdmission, "gold"});
    if (c.gold_gate)
      expected.push_back({ArbiterAction::kOpenAdmission, "gold"});
    if (c.bronze_gate)
      expected.push_back({ArbiterAction::kOpenAdmission, "bronze"});
    EXPECT_EQ(gate_events(arb), expected);
  }
}

TEST(QosArbiter, PromotionReplaysTheDescentLifo) {
  FastTierArbiter arb(qos_arbiter_options(), 50);
  const std::string bronze = "bronze_fn", pinned = "pinned";
  CurveScript script;
  script.bytes = {{2, 30}, {4, 10}};

  // bronze 60 + pinned 30 = 90 > 50: bronze walks two curve points down
  // (60 -> 30, still 60 > 50 -> 10; 10 + 30 = 40 fits).
  arb.tick(0,
           {demand(0, bronze, 60, QosClass::kBronze, {{2, 30}, {4, 10}}),
            demand(1, pinned, 30, QosClass::kNone, {}, /*demotable=*/false)},
           script.hook());
  ASSERT_EQ(script.calls.size(), 2u);
  EXPECT_EQ(arb.rung(0), 2);

  // The pinned lane leaves: recovery promotes exactly one step per tick,
  // replaying the recorded descent LIFO — back to the depth-1 point (the
  // prefix it was demoted through).
  script.calls.clear();
  arb.tick(1, {demand(0, bronze, 10, QosClass::kBronze, {})}, script.hook());
  ASSERT_EQ(script.calls.size(), 1u);
  EXPECT_EQ(script.calls[0], (std::pair<size_t, size_t>{0, 2}));
  EXPECT_EQ(arb.rung(0), 1);
  EXPECT_EQ(arb.resident_fast_bytes(), 30u);

  // Promoting to depth 0 would restore the unconstrained 60 bytes > 50:
  // hysteresis holds the lane at depth 1.
  script.calls.clear();
  arb.tick(2, {demand(0, bronze, 30, QosClass::kBronze, {})}, script.hook());
  EXPECT_TRUE(script.calls.empty());
  EXPECT_EQ(arb.rung(0), 1);

  const ArbiterReport r = arb.report();
  EXPECT_EQ(r.demotions, 2u);
  EXPECT_EQ(r.promotions, 1u);
}

TEST(QosArbiter, IdledLaneKeepsItsDescentThroughStaleStackPops) {
  // Demote three curve steps, promote one, then idle the lane while its
  // entries top the demote stack: the stale entries pop, but the lane
  // keeps its depth, so it must keep the descent that depth indexes.
  // Re-demoted deeper than a two-tier ladder and promoted again, it must
  // replay its curve.
  FastTierArbiter arb(qos_arbiter_options(), /*fast_budget_bytes=*/50);
  const std::string bronze = "bronze_fn", pinned = "pinned";
  const std::vector<CurveStep> curve = {
      {1, 45}, {2, 35}, {3, 15}, {4, 10}, {5, 5}};
  std::vector<RetierBound> bounds;
  const FastTierArbiter::ApplyRung apply =
      [&](size_t, int, const RetierBound& bound) -> std::optional<u64> {
    bounds.push_back(bound);
    for (const CurveStep& step : curve)
      if (bound.min_descent_prefix == step.prefix) return step.fast_bytes;
    return std::nullopt;
  };
  // One tick: the bronze lane at `depth` of its curve (its remaining curve
  // is everything below), beside a non-demotable lane setting the pressure.
  const auto tick = [&](u64 epoch, u64 bronze_fast, size_t depth,
                        bool active, u64 pinned_fast) {
    FastTierArbiter::LaneDemand lane =
        demand(0, bronze, bronze_fast, QosClass::kBronze,
               std::vector<CurveStep>(curve.begin() + depth, curve.end()));
    lane.active = active;
    arb.tick(epoch,
             {lane, demand(1, pinned, pinned_fast, QosClass::kNone, {},
                           /*demotable=*/false)},
             apply);
  };

  tick(0, 60, 0, true, 30);  // 90 > 50: down 60 -> 45 -> 35 -> 15
  EXPECT_EQ(arb.rung(0), 3);
  tick(1, 15, 3, true, 10);  // 25 fits: back up to 35
  EXPECT_EQ(arb.rung(0), 2);
  tick(2, 35, 2, false, 10);  // idle: both remaining entries go stale
  EXPECT_EQ(arb.rung(0), 2);
  tick(3, 35, 2, true, 40);  // 75 > 50: down 35 -> 15 -> 10, to depth 4
  EXPECT_EQ(arb.rung(0), 4);
  tick(4, 10, 4, true, 10);  // 20 fits: back up one curve step
  EXPECT_EQ(arb.rung(0), 3);

  // Every re-tier, the last promotion included, is a curve prefix.
  ASSERT_EQ(bounds.size(), 7u);
  for (const RetierBound& bound : bounds)
    EXPECT_TRUE(bound.min_descent_prefix.has_value());
  EXPECT_EQ(bounds.back().min_descent_prefix, std::optional<size_t>{3});
  EXPECT_EQ(arb.resident_fast_bytes(), 25u);
}

/// A scripted lane for the property test: its class, its full Eq-1 curve
/// and where Step IV currently has it, plus the reference descent the test
/// rebuilds from the re-tier calls alone.
struct ScriptedLane {
  std::string name;
  QosClass cls = QosClass::kNone;
  bool pinned = false;           ///< never demotable (a profiling lane)
  u64 undemoted = 0;             ///< footprint at prefix 0
  std::vector<CurveStep> curve;  ///< strictly decreasing, ends at 0 bytes
  size_t prefix = 0;             ///< Step IV's current placement prefix
  u64 fast = 0;                  ///< footprint at `prefix`
  bool active = false;
  std::vector<size_t> descent;   ///< prefixes of unpromoted demotions
  int ledger_depth = 0;          ///< demote minus promote events
};

std::vector<ScriptedLane> scripted_fleet(Rng& rng) {
  std::vector<ScriptedLane> lanes(2 + rng.next_below(5));
  for (size_t i = 0; i < lanes.size(); ++i) {
    ScriptedLane& l = lanes[i];
    l.name = "fn" + std::to_string(i);
    l.cls = static_cast<QosClass>(rng.next_below(kQosClassCount));
    l.pinned = rng.next_below(4) == 0;
    l.undemoted = 10 + rng.next_below(100);
    l.fast = l.undemoted;
    if (l.pinned) continue;
    size_t prefix = 0;
    for (u64 bytes = l.undemoted; bytes > 0;) {
      prefix += 1 + rng.next_below(3);
      bytes = rng.next_below(bytes);
      l.curve.push_back(CurveStep{prefix, bytes});
    }
  }
  return lanes;
}

TEST(QosArbiter, RandomFleetsKeepTheSingleMechanismInvariants) {
  // An independent oracle for the one demotion mechanism: random class
  // mixes (kNone included), random curves, active/idle/finished lanes,
  // random budgets, withdraw toggles and a re-tier hook that sometimes
  // fails. After every tick the ledger, the re-tier calls and the gates
  // must agree with a reference rebuilt from the calls alone.
  for (u64 seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    ArbiterOptions opt = qos_arbiter_options();
    opt.keepalive = rng.next_below(2) == 0;
    const u64 budget = 20 + rng.next_below(200);
    FastTierArbiter arb(opt, budget);
    std::vector<ScriptedLane> lanes = scripted_fleet(rng);

    struct Call {
      size_t lane;
      int rung;
      RetierBound bound;
      u64 before;  ///< the lane's footprint when the call was made
      bool ok;
    };
    std::vector<Call> calls;
    const FastTierArbiter::ApplyRung apply =
        [&](size_t lane, int rung,
            const RetierBound& bound) -> std::optional<u64> {
      ScriptedLane& l = lanes[lane];
      Call call{lane, rung, bound, l.fast, false};
      if (rng.next_below(6) != 0) {  // one re-tier in six fails
        if (bound.trivial()) {
          l.prefix = 0;
          l.fast = l.undemoted;
          call.ok = true;
        }
        for (const CurveStep& step : l.curve)
          if (step.prefix == bound.min_descent_prefix) {
            l.prefix = step.prefix;
            l.fast = step.fast_bytes;
            call.ok = true;
          }
      }
      calls.push_back(call);
      return call.ok ? std::optional<u64>(l.fast) : std::nullopt;
    };

    for (u64 epoch = 0; epoch < 50; ++epoch) {
      if (rng.next_below(8) == 0)
        arb.set_budget_withdrawn(!arb.budget_withdrawn());
      const bool withdrawn = arb.budget_withdrawn();
      const u64 fits = withdrawn ? 0 : budget;
      bool gold_present = false;
      bool bronze_present = false;
      std::vector<FastTierArbiter::LaneDemand> demands;
      for (size_t i = 0; i < lanes.size(); ++i) {
        ScriptedLane& l = lanes[i];
        const bool was_active = l.active;
        l.active = rng.next_below(4) != 0;
        FastTierArbiter::LaneDemand d;
        d.lane = i;
        d.name = &l.name;
        d.qos = l.cls;
        d.active = l.active;
        d.just_finished = was_active && !l.active && rng.next_below(2) == 0;
        d.demotable = !l.pinned && rng.next_below(10) != 0;
        d.fast_bytes = l.fast;
        d.slow_bytes = 1;
        d.cold_cost_ns = ms(1);
        if (d.demotable)
          for (const CurveStep& step : l.curve)
            if (step.prefix > l.prefix) d.curve.push_back(step);
        (l.cls == QosClass::kBronze ? bronze_present : gold_present) = true;
        demands.push_back(std::move(d));
      }
      bool gold = arb.admission_closed(QosClass::kGold);
      bool bronze = arb.admission_closed(QosClass::kBronze);
      const size_t first_event = arb.events().size();
      calls.clear();
      arb.tick(epoch, demands, apply);

      // Re-tier calls against the reference descents.
      size_t promotion_calls = 0;
      for (const Call& c : calls) {
        ScriptedLane& l = lanes[c.lane];
        const FastTierArbiter::LaneDemand& d = demands[c.lane];
        EXPECT_TRUE(d.active && d.demotable) << l.name;
        const int depth = static_cast<int>(l.descent.size());
        if (c.rung == depth + 1) {
          // A demotion: a point of the lane's remaining curve, deeper than
          // its last one, that lowers its footprint.
          ASSERT_TRUE(c.bound.min_descent_prefix.has_value()) << l.name;
          const size_t prefix = *c.bound.min_descent_prefix;
          const auto point = std::find_if(
              d.curve.begin(), d.curve.end(),
              [&](const CurveStep& step) { return step.prefix == prefix; });
          ASSERT_NE(point, d.curve.end()) << l.name << " prefix " << prefix;
          EXPECT_GT(prefix, l.descent.empty() ? size_t{0} : l.descent.back());
          EXPECT_LT(point->fast_bytes, c.before) << l.name;
          if (c.ok) l.descent.push_back(prefix);
        } else {
          // A promotion: one step up, replaying the prefix recorded at the
          // target depth; depth 0 is the unconstrained placement.
          ASSERT_EQ(c.rung, depth - 1) << l.name;
          ++promotion_calls;
          if (c.rung == 0)
            EXPECT_TRUE(c.bound.trivial()) << l.name;
          else
            EXPECT_EQ(c.bound.min_descent_prefix,
                      l.descent[static_cast<size_t>(c.rung) - 1])
                << l.name;
          if (c.ok) l.descent.pop_back();
        }
      }
      EXPECT_LE(promotion_calls, 1u);

      // This tick's ledger: promotions fit, gates follow the class rules.
      size_t promotions = 0, closes = 0, opens = 0;
      const std::vector<ArbiterEvent>& events = arb.events();
      for (size_t e = first_event; e < events.size(); ++e) {
        const ArbiterEvent& ev = events[e];
        for (ScriptedLane& l : lanes)
          if (ev.function == l.name)
            l.ledger_depth += ev.action == ArbiterAction::kDemote    ? 1
                              : ev.action == ArbiterAction::kPromote ? -1
                                                                     : 0;
        if (ev.action == ArbiterAction::kPromote) {
          ++promotions;
          EXPECT_LE(ev.resident_bytes, fits);
        }
        if (ev.action != ArbiterAction::kCloseAdmission &&
            ev.action != ArbiterAction::kOpenAdmission)
          continue;
        const bool is_bronze = ev.function == "bronze";
        ASSERT_TRUE(is_bronze || ev.function == "gold") << ev.function;
        if (ev.action == ArbiterAction::kCloseAdmission) {
          ++closes;
          // No phantom gate, and bronze closes before gold under pressure.
          EXPECT_TRUE(is_bronze ? bronze_present : gold_present);
          if (!is_bronze && !withdrawn) {
            EXPECT_TRUE(bronze || !bronze_present);
          }
          (is_bronze ? bronze : gold) = true;
        } else {
          ++opens;
          EXPECT_FALSE(withdrawn);
          if (is_bronze) {
            EXPECT_FALSE(gold) << "gold reopens first";
          }
          (is_bronze ? bronze : gold) = false;
        }
      }
      EXPECT_LE(promotions, 1u);
      EXPECT_LE(opens, 1u);
      if (withdrawn) {
        EXPECT_TRUE(gold || !gold_present);
        EXPECT_TRUE(bronze || !bronze_present);
      } else {
        EXPECT_LE(closes, 1u);
      }
      if (promotions > 0) {
        EXPECT_LE(arb.resident_fast_bytes(), fits);
      }
      EXPECT_EQ(arb.admission_closed(QosClass::kGold), gold);
      EXPECT_EQ(arb.admission_closed(QosClass::kNone), gold);
      EXPECT_EQ(arb.admission_closed(QosClass::kBronze), bronze);
      EXPECT_EQ(arb.admission_closed(), gold || bronze);
      for (size_t i = 0; i < lanes.size(); ++i) {
        const ScriptedLane& l = lanes[i];
        EXPECT_EQ(arb.rung(i), l.ledger_depth) << l.name;
        EXPECT_EQ(arb.rung(i), static_cast<int>(l.descent.size())) << l.name;
        EXPECT_EQ(l.prefix, l.descent.empty() ? size_t{0} : l.descent.back())
            << l.name;
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// Engine integration: EDF pop order, bronze-before-gold shedding at the
// global bound, per-class ledgers, and cross-thread determinism.
// ---------------------------------------------------------------------------

std::unique_ptr<PlatformEngine> single_lane(const EngineOptions& opts,
                                            std::vector<Request> stream,
                                            QosClass qos) {
  auto engine = std::make_unique<PlatformEngine>(
      SystemConfig::paper_default(), PricingPlan{}, opts);
  FunctionSpec spec = workloads::all_functions()[0];
  FunctionRegistration reg(std::move(spec));
  reg.policy(PolicyKind::kToss).toss(fast_toss()).seed(42);
  if (qos != QosClass::kNone) reg.qos(qos);
  EXPECT_TRUE(engine->add(std::move(reg), std::move(stream)).ok());
  return engine;
}

TEST(QosEngine, EdfServesTheTightDeadlineQueuedBehindSlackWork) {
  // Three requests, all available at t=0: two with no deadline and one
  // whose deadline passes the instant any other request is served first.
  EngineOptions opts;
  opts.enforce_deadlines = true;
  opts.max_lane_queue = 8;
  const auto stream = [] {
    std::vector<Request> s = RequestGenerator::round_robin(3, 5);
    s[2].deadline_ns = 1;  // 1 ns after its t=0 arrival
    return s;
  };

  // Every lane, classed or not, pops earliest-deadline-first: the tight
  // request is served first (late — an SLO miss, not a shed), then the
  // zero-deadline pair in queue order. Nothing is dropped.
  for (const QosClass cls : {QosClass::kGold, QosClass::kNone}) {
    SCOPED_TRACE(qos_class_name(cls));
    const EngineReport report = single_lane(opts, stream(), cls)->run(1).value();
    const FunctionReport& f = report.functions[0];
    EXPECT_EQ(f.overload.completed, 3u);
    EXPECT_EQ(f.overload.total_shed(), 0u);
    EXPECT_GE(f.overload.deadline_misses, 1u);
  }
}

TEST(QosEngine, DeadlineEqualToArrivalIsServedNotShed) {
  // The serve-time twin of the trace loader's boundary rule: shedding
  // requires sim_now strictly past the deadline, so a request due the
  // moment it arrives is still served (and counted as an SLO miss).
  EngineOptions opts;
  opts.enforce_deadlines = true;
  std::vector<Request> s = RequestGenerator::round_robin(1, 5);
  s[0].arrival_ns = us(5);
  s[0].deadline_ns = us(5);
  const EngineReport report =
      single_lane(opts, std::move(s), QosClass::kGold)->run(1).value();
  const FunctionReport& f = report.functions[0];
  EXPECT_EQ(f.overload.completed, 1u);
  EXPECT_EQ(f.overload.total_shed(), 0u);
  EXPECT_EQ(f.overload.deadline_misses, 1u);
}

/// A saturated mixed fleet: gold/bronze alternating, tight lane queues and
/// a global bound at half the fleet's aggregate depth, deadlines enforced.
std::unique_ptr<PlatformEngine> qos_fleet(u64 seed) {
  EngineOptions opts;
  // chunk = 1 so the barrier sees each lane's queue at its full depth
  // (a larger chunk serves the queue down between arrivals and the
  // global bound would never bind against this bursty load).
  opts.chunk = 1;
  opts.max_lane_queue = 3;
  // Below what the deadline-free lanes alone hold at the barrier (4 lanes
  // x depth-1 queued after each serves one), so the trim always binds.
  opts.max_global_queue = 6;
  opts.enforce_deadlines = true;
  auto engine = std::make_unique<PlatformEngine>(SystemConfig::paper_default(),
                                                 PricingPlan{}, opts);
  const std::vector<FunctionSpec> base = workloads::all_functions();
  for (size_t i = 0; i < 6; ++i) {
    const QosClass cls = i % 2 == 0 ? QosClass::kGold : QosClass::kBronze;
    FunctionSpec spec = base[i % base.size()];
    spec.name += "#" + std::to_string(i);
    // Deadlines on one lane of each class only: a fleet-wide deadline
    // would drain whole queues as free deadline sheds at pop (service
    // times dwarf any tight deadline) and the global bound would never
    // bind. The deadline-free majority keeps the barrier's lane queues
    // full, so the trim engages and its victim order is observable.
    const Nanos deadline = i < 2 ? ms(5) : 0;
    auto stream = RequestGenerator::open_loop(
        RequestGenerator::round_robin(40, mix_seed(seed, spec.name)), us(10),
        deadline, mix_seed(seed, spec.name));
    FunctionRegistration reg(std::move(spec));
    reg.policy(PolicyKind::kToss).toss(fast_toss()).seed(seed + i).qos(cls);
    EXPECT_TRUE(engine->add(std::move(reg), std::move(stream)).ok());
  }
  return engine;
}

TEST(QosEngine, GlobalBoundShedsBronzeBeforeGold) {
  const EngineReport report = qos_fleet(17)->run(2).value();
  u64 gold_shed = 0, bronze_shed = 0, gold_trim = 0, bronze_trim = 0;
  for (size_t i = 0; i < report.functions.size(); ++i) {
    const OverloadStats& o = report.functions[i].overload;
    EXPECT_EQ(o.offered, o.completed + o.total_shed())
        << report.functions[i].name;
    if (i % 2 == 0) {
      gold_shed += o.total_shed();
      gold_trim += o.shed_by(ShedCause::kGlobalOverload);
    } else {
      bronze_shed += o.total_shed();
      bronze_trim += o.shed_by(ShedCause::kGlobalOverload);
    }
  }
  // The load genuinely saturates the global bound, and the trim victims
  // are bronze lanes — gold is only trimmed when no bronze queue remains.
  EXPECT_GT(bronze_trim, 0u);
  EXPECT_GE(bronze_trim, gold_trim);
  EXPECT_GT(bronze_shed, gold_shed);

  // Per-class rollups mirror the lane ledgers.
  ASSERT_EQ(report.metrics.qos.size(), 2u);
  EXPECT_EQ(report.metrics.qos[0].cls, QosClass::kGold);
  EXPECT_EQ(report.metrics.qos[1].cls, QosClass::kBronze);
  u64 gold_offered = 0, bronze_offered = 0;
  for (size_t i = 0; i < report.functions.size(); ++i)
    (i % 2 == 0 ? gold_offered : bronze_offered) +=
        report.functions[i].overload.offered;
  EXPECT_EQ(report.metrics.qos[0].ledger.offered, gold_offered);
  EXPECT_EQ(report.metrics.qos[1].ledger.offered, bronze_offered);
  EXPECT_GE(report.metrics.qos[0].ledger.attainment(),
            report.metrics.qos[1].ledger.attainment());

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"schema\":7"), std::string::npos);
  EXPECT_NE(json.find("\"qos\":["), std::string::npos);
  EXPECT_NE(json.find("\"class\":\"gold\""), std::string::npos);
  EXPECT_NE(json.find("\"class\":\"bronze\""), std::string::npos);
}

TEST(QosEngine, LedgersBitIdenticalAcrossThreadCountsWithQosEngaged) {
  // The determinism contract survives every QoS feature at once: EDF pops,
  // class-ordered global trims, per-class rollups. Equal-deadline ties are
  // common here (fixed relative deadline), so this is also the EDF
  // tie-break determinism check.
  for (u64 seed : {31u, 32u, 33u}) {
    const EngineReport serial = qos_fleet(seed)->run(1).value();
    const EngineReport parallel = qos_fleet(seed)->run(4).value();
    EXPECT_TRUE(serial == parallel) << "seed " << seed;
    EXPECT_GT(serial.total_shed(), 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace toss
