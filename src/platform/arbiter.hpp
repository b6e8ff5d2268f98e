// Fleet-wide fast-tier budget arbiter (DESIGN.md §9).
//
// The engine's lanes are mutually isolated for determinism, but they share
// one physical fast tier: the host's DRAM. The arbiter defends that budget
// at the engine's epoch barrier, walking a graceful-degradation ladder when
// the fleet's aggregate resident fast-tier bytes exceed it:
//
//   rung A  evict warm keep-alive VMs, lowest GDSF priority first
//           (shedding warmth costs a future cold start, nothing else)
//   rung B  demote one tiered lane one step down its Eq-1 cost curve
//           (TieringDecision::demotion_curve): re-enter Step IV at the
//           curve's next prefix. Victims go in qos_shed_rank order
//           (bronze, then unclassed, then gold), largest footprint first
//           within a class
//   rung C  close admission, one class gate per tick, bronze first: new
//           arrivals of a closed class are shed with kOverloaded until
//           pressure subsides
//
// Recovery climbs the same ladder in reverse: the gates reopen, gold first,
// as soon as the fleet fits again, and demoted lanes are promoted LIFO —
// one per epoch, replaying the recorded descent, and only when the
// footprint recorded at the target depth still fits (hysteresis, so the
// fleet cannot demote/promote-flap).
//
// Every decision is made at the serial barrier in deterministic (lane
// registration / GDSF map) order from simulated state only, so the ledger
// of ArbiterEvents is bit-identical for any worker thread count.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/retier_bound.hpp"
#include "platform/keepalive.hpp"
#include "platform/qos.hpp"

namespace toss {

/// One demotion candidate on a lane's Eq-1 cost curve: re-tiering with
/// min_descent_prefix = `prefix` lands the lane at `fast_bytes` of rank-0
/// footprint (the cheapest prefix at that footprint level — a local minimum
/// of ladder_normalized_cost). Mirrors core's CostCurvePoint without
/// dragging optimizer.hpp into the platform layer.
struct CurveStep {
  size_t prefix = 0;
  u64 fast_bytes = 0;

  bool operator==(const CurveStep&) const = default;
};

struct ArbiterOptions {
  /// Master switch; everything below is inert when false.
  bool enabled = false;
  /// Fleet fast-tier budget. 0 = use the SystemConfig's installed fast-tier
  /// capacity (TierSpec::capacity_bytes), resolved by the engine.
  u64 fast_budget_bytes = 0;
  /// Keep finished lanes' VMs warm (GDSF keep-alive) until evicted.
  bool keepalive = true;
};

enum class ArbiterAction : u8 {
  kEvictWarm = 0,    ///< rung A: a warm VM was evicted
  kDemote,           ///< rung B: a function was re-tiered one curve step down
  kPromote,          ///< recovery: a function was re-tiered one step back up
  kCloseAdmission,   ///< rung C: new arrivals will be shed
  kOpenAdmission,    ///< recovery: admission re-opened
};

/// One ledger entry. The sequence of events is part of the engine's
/// determinism contract: identical for any thread count at a fixed seed.
struct ArbiterEvent {
  u64 epoch = 0;
  /// The function, or the gate's class name ("gold"/"bronze") for
  /// admission open/close events.
  std::string function;
  ArbiterAction action = ArbiterAction::kEvictWarm;
  int rung = 0;             ///< depth after the action (demote/promote only)
  u64 resident_bytes = 0;   ///< fleet resident fast bytes after the action

  bool operator==(const ArbiterEvent&) const = default;
};

struct ArbiterReport {
  std::vector<ArbiterEvent> events;  ///< decision ledger, in decision order
  u64 demotions = 0;
  u64 promotions = 0;
  u64 keepalive_evictions = 0;
  u64 admission_closures = 0;
  u64 peak_resident_fast_bytes = 0;
  u64 final_resident_fast_bytes = 0;
  bool admission_closed = false;  ///< state at the end of the run
  KeepAliveStats keepalive;
  u64 warm_count = 0;  ///< VMs still warm at the end of the run

  bool operator==(const ArbiterReport&) const = default;
};

class FastTierArbiter {
 public:

  /// Per-lane demand snapshot the engine hands the arbiter each epoch.
  struct LaneDemand {
    size_t lane = 0;                   ///< engine lane index
    const std::string* name = nullptr;
    bool active = false;         ///< has queued or future work this epoch
    bool just_finished = false;  ///< drained its stream during this epoch
    bool demotable = false;      ///< TOSS lane currently in kTiered
    u64 fast_bytes = 0;          ///< fast-tier bytes one invocation pins
    u64 slow_bytes = 0;
    Nanos cold_cost_ns = 0;      ///< keep-alive benefit (last setup cost)
    /// Predicted time until the function's next arrival (prewarm
    /// handshake): a warm VM about to be reused outranks pure GDSF
    /// priority. Negative = the predictor has no confident estimate.
    Nanos predicted_reuse_gap_ns = -1;
    /// Service class (DESIGN.md §14): the demotion victim order
    /// (qos_shed_rank) and which admission gate the lane reads. kNone
    /// reads the gold gate.
    QosClass qos = QosClass::kNone;
    /// Remaining demotion candidates on the lane's Eq-1 cost curve,
    /// nearest (smallest footprint drop) first; filled by the host from
    /// TieringDecision::demotion_curve. A demotable lane with an empty
    /// curve is at the curve's floor.
    std::vector<CurveStep> curve;
  };

  /// Re-tier hook: ask the engine to rebuild `lane`'s snapshot under
  /// `bound` (trivial = unconstrained), landing it at depth `rung`.
  /// Returns the lane's new resident fast bytes, or nullopt when the
  /// re-tier failed (the lane keeps serving its current artifact).
  using ApplyRung = std::function<std::optional<u64>(
      size_t lane, int rung, const RetierBound& bound)>;

  /// `fast_budget_bytes` must already be resolved (non-zero).
  FastTierArbiter(ArbiterOptions options, u64 fast_budget_bytes);

  /// One barrier pass: account the fleet, then walk the ladder (down under
  /// pressure, up — at most one promotion — when the fleet fits again).
  void tick(u64 epoch, const std::vector<LaneDemand>& lanes,
            const ApplyRung& apply);

  /// Host health governance (cluster): while withdrawn the fleet budget is
  /// treated as zero — warmth is flushed, every demotable lane walks to its
  /// curve floor and every present class's gate closes at the next tick,
  /// staying closed until the budget is restored. Quarantining a host must
  /// not strand its fast-tier bytes in limbo; this is how the fleet arbiter
  /// reclaims them.
  void set_budget_withdrawn(bool withdrawn) { budget_withdrawn_ = withdrawn; }
  bool budget_withdrawn() const { return budget_withdrawn_; }

  /// Any class gate closed.
  bool admission_closed() const { return closed_gold_ || closed_bronze_; }
  /// Per-class admission gate: bronze closes first and reopens last; gold
  /// (and unclassed) lanes hold out until the ladder is exhausted and
  /// readmit first. A gate closes only while some lane reads it, so a host
  /// with one class present behaves as a single gate.
  bool admission_closed(QosClass cls) const {
    return cls == QosClass::kBronze ? closed_bronze_ : closed_gold_;
  }
  /// The lane's demotion depth: curve steps applied and not yet promoted.
  int rung(size_t lane) const {
    return lane < state_.size()
               ? static_cast<int>(state_[lane].descent.size())
               : 0;
  }
  u64 resident_fast_bytes() const { return resident_; }
  const std::vector<ArbiterEvent>& events() const { return events_; }
  ArbiterReport report() const;

 private:
  /// Per engine lane index: where the lane stands on its cost curve.
  struct LaneState {
    /// Resident fast bytes at depth 0, recorded when the lane first
    /// demotes; the fit-check for its last promotion reads it back.
    u64 undemoted_fast_bytes = 0;
    /// Applied curve steps in descent order: entry d-1 is the (prefix,
    /// resident fast bytes) the lane landed on at depth d. Promotions
    /// replay it LIFO.
    std::vector<CurveStep> descent;
  };

  void push_event(u64 epoch, std::string function, ArbiterAction action,
                  int rung);
  /// Open or close one class gate (`gold` or `bronze`), logging the event.
  void set_gate(u64 epoch, QosClass cls, bool closed);

  ArbiterOptions options_;
  u64 budget_ = 0;
  KeepAliveCache warm_;

  std::vector<LaneState> state_;
  /// Demotion order; promotions pop LIFO (one stack entry per demotion).
  std::vector<size_t> demote_stack_;

  /// Class admission gates; kNone lanes read the gold gate.
  bool closed_gold_ = false;
  bool closed_bronze_ = false;
  bool budget_withdrawn_ = false;
  u64 resident_ = 0;
  u64 peak_resident_ = 0;
  u64 demotions_ = 0;
  u64 promotions_ = 0;
  u64 keepalive_evictions_ = 0;
  u64 admission_closures_ = 0;
  std::vector<ArbiterEvent> events_;
};

}  // namespace toss
