// Fleet-wide fast-tier budget arbiter (DESIGN.md §9).
//
// The engine's lanes are mutually isolated for determinism, but they share
// one physical fast tier: the host's DRAM. The arbiter defends that budget
// at the engine's epoch barrier, walking a graceful-degradation ladder when
// the fleet's aggregate resident fast-tier bytes exceed it:
//
//   rung A  evict warm keep-alive VMs, lowest GDSF priority first
//           (shedding warmth costs a future cold start, nothing else)
//   rung B  demote the largest-footprint tiered function one rung:
//           re-enter Step IV placement under a tightened bound
//           (rung 1 = demote_step x its unconstrained fast bytes;
//            rung r >= 2 = tier floor r-1, pushing the whole image below
//            the ladder's top r-1 rungs — one ladder rank per rung, so a
//            deep ladder degrades in many small steps and the two-tier
//            ladder keeps its historical cap/fully-slow pair)
//   rung C  close admission: new arrivals are shed with kOverloaded until
//           pressure subsides
//
// Recovery climbs the same ladder in reverse: admission reopens as soon as
// the fleet fits again, and demoted functions are promoted LIFO — one per
// epoch, and only when their recorded footprint at the target rung still
// fits (hysteresis, so the fleet cannot demote/promote-flap).
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

/// One remaining demotion candidate on a lane's Eq-1 cost curve: re-tiering
/// with min_descent_prefix = `prefix` lands the lane at `fast_bytes` of
/// rank-0 footprint (the cheapest prefix at that footprint level — a local
/// minimum of ladder_normalized_cost). Mirrors core's CostCurvePoint
/// without dragging optimizer.hpp into the platform layer.
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
  /// Slow-tier pool for warm VMs; effectively abundant (paper: 768 GB).
  u64 slow_budget_bytes = 64 * kGiB;
  /// Rung-1 demotion cap as a fraction of the function's unconstrained
  /// fast-tier bytes; every deeper rung is a tier floor one rank further
  /// down the ladder (the last rung leaves only the deepest tier).
  double demote_step = 0.5;
  /// Keep finished lanes' VMs warm (GDSF keep-alive) until evicted.
  bool keepalive = true;
  /// Prewarm handshake: weigh each warm VM's eviction priority by the
  /// inter-arrival predictor's next-arrival estimate (LaneDemand::
  /// predicted_reuse_gap_ns), so a VM about to be reused outranks pure
  /// GDSF priority. Inert for lanes with no prediction.
  bool prewarm_hints = true;
};

enum class ArbiterAction : u8 {
  kEvictWarm = 0,    ///< rung A: a warm VM was evicted
  kDemote,           ///< rung B: a function was re-tiered one rung down
  kPromote,          ///< recovery: a function was re-tiered one rung up
  kCloseAdmission,   ///< rung C: new arrivals will be shed
  kOpenAdmission,    ///< recovery: admission re-opened
};

const char* arbiter_action_name(ArbiterAction action);

/// One ledger entry. The sequence of events is part of the engine's
/// determinism contract: identical for any thread count at a fixed seed.
struct ArbiterEvent {
  u64 epoch = 0;
  std::string function;  ///< empty for admission open/close events
  ArbiterAction action = ArbiterAction::kEvictWarm;
  int rung = 0;             ///< rung after the action (demote/promote only)
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
    /// handshake); negative = the predictor has no confident estimate.
    Nanos predicted_reuse_gap_ns = -1;
    /// Service class (DESIGN.md §14). Any classed lane latches the arbiter
    /// into QoS mode: curve-based continuous demotion in qos_shed_rank
    /// order and per-class admission gates.
    QosClass qos = QosClass::kNone;
    /// Remaining demotion candidates on the lane's Eq-1 cost curve,
    /// nearest (smallest footprint drop) first; filled by the host from
    /// TieringDecision::demotion_curve when QoS classes are engaged. A
    /// demotable lane with an empty curve is at the curve's floor.
    std::vector<CurveStep> curve;
  };

  /// Re-tier hook: ask the engine to rebuild `lane`'s snapshot under
  /// `bound` (trivial = unconstrained). Returns the lane's new resident
  /// fast bytes, or nullopt when the re-tier failed (the lane keeps
  /// serving its current artifact).
  using ApplyRung = std::function<std::optional<u64>(
      size_t lane, int rung, const RetierBound& bound)>;

  /// `fast_budget_bytes` must already be resolved (non-zero).
  /// `tier_count` is the host ladder's depth; the demotion ladder gets one
  /// rung per tier (rung 0 = unconstrained, rung 1 = demote_step cap,
  /// rung r >= 2 = tier floor r-1), so max_rung() == tier_count and a
  /// two-tier ladder keeps its historical depth of 2.
  FastTierArbiter(ArbiterOptions options, u64 fast_budget_bytes,
                  size_t tier_count = 2);

  /// Deepest demotion rung for this host's ladder.
  int max_rung() const { return max_rung_; }

  /// The Step-IV bound demotion rung `rung` imposes on a lane whose
  /// unconstrained fast footprint is `unconstrained_fast_bytes`.
  RetierBound bound_for_rung(int rung, u64 unconstrained_fast_bytes) const;

  /// One barrier pass: account the fleet, then walk the ladder (down under
  /// pressure, up — at most one promotion — when the fleet fits again).
  void tick(u64 epoch, const std::vector<LaneDemand>& lanes,
            const ApplyRung& apply);

  /// Host health governance (cluster): while withdrawn the fleet budget is
  /// treated as zero — warmth is flushed, every demotable lane walks to the
  /// ladder floor and admission closes at the next tick, staying closed
  /// until the budget is restored. Quarantining a host must not strand its
  /// fast-tier bytes in limbo; this is how the fleet arbiter reclaims them.
  void set_budget_withdrawn(bool withdrawn) { budget_withdrawn_ = withdrawn; }
  bool budget_withdrawn() const { return budget_withdrawn_; }

  bool admission_closed() const { return admission_closed_; }
  /// Per-class admission gate (QoS mode): bronze lanes close first and
  /// reopen last; gold (and unclassed) lanes hold out until the ladder is
  /// exhausted and readmit first. Outside QoS mode every class reads the
  /// single legacy gate, so the answer is identical for all callers.
  bool admission_closed(QosClass cls) const {
    if (!qos_mode_) return admission_closed_;
    return cls == QosClass::kBronze ? closed_bronze_ : closed_gold_;
  }
  int rung(size_t lane) const {
    return lane < rung_.size() ? rung_[lane] : 0;
  }
  u64 resident_fast_bytes() const { return resident_; }
  u64 budget_bytes() const { return budget_; }
  const std::vector<ArbiterEvent>& events() const { return events_; }
  ArbiterReport report() const;

 private:
  void ensure_lane(size_t lane);
  void push_event(u64 epoch, std::string function, ArbiterAction action,
                  int rung);

  ArbiterOptions options_;
  u64 budget_ = 0;
  int max_rung_ = 2;
  KeepAliveCache warm_;

  std::vector<int> rung_;  ///< per engine lane index
  /// Resident fast bytes observed at each rung, recorded as the lane moves
  /// down the ladder; the promotion fit-check reads these back. Inner
  /// vectors are sized max_rung_ + 1.
  std::vector<std::vector<u64>> bytes_at_rung_;
  /// Demotion order; promotions pop LIFO (one stack entry per demotion).
  std::vector<size_t> demote_stack_;
  /// QoS mode: applied curve steps per engine lane index, in descent order
  /// — entry d-1 is the (prefix, resident fast bytes) the lane landed on
  /// at depth d. Promotions pop this stack; rung_ doubles as the depth.
  /// In QoS mode either descent_[l].size() == rung_[l], or descent_[l] is
  /// empty and rung_[l] <= max_rung_ (fixed rungs from before the latch).
  std::vector<std::vector<CurveStep>> descent_;

  bool admission_closed_ = false;
  /// QoS mode latch (any classed LaneDemand ever seen) + per-class gates.
  /// Invariant while latched: admission_closed_ == closed_bronze_ ||
  /// closed_gold_, so admission_closed_streak bookkeeping is unchanged.
  bool qos_mode_ = false;
  bool closed_bronze_ = false;
  bool closed_gold_ = false;
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
