#include "platform/arbiter.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace toss {

const char* arbiter_action_name(ArbiterAction action) {
  switch (action) {
    case ArbiterAction::kEvictWarm: return "evict_warm";
    case ArbiterAction::kDemote: return "demote";
    case ArbiterAction::kPromote: return "promote";
    case ArbiterAction::kCloseAdmission: return "close_admission";
    case ArbiterAction::kOpenAdmission: return "open_admission";
  }
  return "?";
}

FastTierArbiter::FastTierArbiter(ArbiterOptions options, u64 fast_budget_bytes,
                                 size_t tier_count)
    : options_(options),
      budget_(fast_budget_bytes),
      max_rung_(static_cast<int>(std::max<size_t>(tier_count, 1))),
      warm_(KeepAliveConfig{fast_budget_bytes, options.slow_budget_bytes}) {
  options_.demote_step = std::clamp(options_.demote_step, 0.0, 1.0);
}

RetierBound FastTierArbiter::bound_for_rung(
    int rung, u64 unconstrained_fast_bytes) const {
  RetierBound b;
  if (rung >= 2) {
    // Tier floor, one ladder rank per rung beyond the cap rung. On a
    // two-tier ladder rung 2 floors at rank 1 — the historical fully-slow
    // placement.
    b.min_tier_rank = static_cast<size_t>(rung - 1);
  } else if (rung == 1) {
    b.max_fast_bytes = static_cast<u64>(
        options_.demote_step * static_cast<double>(unconstrained_fast_bytes));
  }
  return b;
}

void FastTierArbiter::ensure_lane(size_t lane) {
  if (lane >= rung_.size()) {
    rung_.resize(lane + 1, 0);
    bytes_at_rung_.resize(lane + 1,
                          std::vector<u64>(static_cast<size_t>(max_rung_) + 1, 0));
    descent_.resize(lane + 1);
  }
}

void FastTierArbiter::push_event(u64 epoch, std::string function,
                                 ArbiterAction action, int rung) {
  events_.push_back(
      ArbiterEvent{epoch, std::move(function), action, rung, resident_});
}

void FastTierArbiter::tick(u64 epoch, const std::vector<LaneDemand>& lanes,
                           const ApplyRung& apply) {
  // Working copy of each lane's fast footprint so ladder moves update the
  // accounting mid-tick.
  std::vector<u64> fast(lanes.size(), 0);
  for (size_t k = 0; k < lanes.size(); ++k) {
    const LaneDemand& d = lanes[k];
    ensure_lane(d.lane);
    // Any classed lane latches QoS mode for the arbiter's lifetime:
    // curve-based continuous demotion, class-ordered victims, per-class
    // admission gates.
    if (d.qos != QosClass::kNone) qos_mode_ = true;
    fast[k] = d.fast_bytes;
    // A lane that went back to work while its VM sat warm re-absorbs it:
    // count the reuse as a keep-alive hit and release the pool bytes (the
    // active-lane accounting below carries the footprint from here on).
    if (d.active && warm_.contains(*d.name)) {
      warm_.lookup(*d.name);
      warm_.evict(*d.name);
    }
    // A lane that drained its stream keeps its VM warm (both tiers) until
    // the budget needs the DRAM back — Section VI-A's keep-alive story.
    if (d.just_finished && options_.keepalive)
      warm_.insert(*d.name, d.fast_bytes, d.slow_bytes, d.cold_cost_ns,
                   options_.prewarm_hints ? d.predicted_reuse_gap_ns : -1);
  }

  const auto recompute = [&] {
    u64 r = warm_.dram_in_use();
    for (size_t k = 0; k < lanes.size(); ++k)
      if (lanes[k].active) r += fast[k];
    resident_ = r;
    peak_resident_ = std::max(peak_resident_, resident_);
  };
  recompute();

  // A quarantined host's budget is withdrawn: the ladder walks against
  // zero, so everything demotes/flushes and admission stays closed below.
  const u64 budget = budget_withdrawn_ ? 0 : budget_;

  // Ladder down. `stuck` marks lanes whose re-tier failed this tick (e.g.
  // persistence faults) so the loop moves on instead of spinning. `used`
  // counts curve steps consumed this tick (QoS mode): the demand's curve
  // was snapshotted before any re-tier, so mid-tick demotions keep walking
  // the same absolute-prefix candidates.
  std::vector<bool> stuck(lanes.size(), false);
  std::vector<size_t> used(lanes.size(), 0);
  while (resident_ > budget) {
    // Rung A: shed warmth first — it only costs a future cold start.
    if (std::optional<std::string> victim = warm_.evict_lowest()) {
      ++keepalive_evictions_;
      recompute();
      push_event(epoch, *victim, ArbiterAction::kEvictWarm, 0);
      continue;
    }
    // Rung B: pick the demotion victim. Classic mode: largest-footprint
    // tiered lane, one fixed rung down. QoS mode: class outranks footprint
    // (bronze lanes walk their curve to exhaustion before an unclassed
    // lane moves, gold last), and the step is the lane's next Eq-1 curve
    // point. Ties break toward the lowest lane index — deterministic.
    size_t best = lanes.size();
    for (size_t k = 0; k < lanes.size(); ++k) {
      const LaneDemand& d = lanes[k];
      if (!d.active || !d.demotable || stuck[k]) continue;
      if (qos_mode_) {
        if (used[k] >= d.curve.size()) continue;
        // Curve steps go only on a depth made of curve steps. A lane
        // demoted on the fixed ladder before the latch climbs back on that
        // ladder first: curve steps on top of fixed rungs would leave a
        // depth neither promotion path can replay.
        if (descent_[d.lane].size() != static_cast<size_t>(rung_[d.lane]))
          continue;
      } else if (rung_[d.lane] >= max_rung_) {
        continue;
      }
      if (best == lanes.size()) {
        best = k;
        continue;
      }
      if (qos_mode_) {
        const int rk = qos_shed_rank(d.qos);
        const int rb = qos_shed_rank(lanes[best].qos);
        if (rk != rb) {
          if (rk < rb) best = k;
          continue;
        }
      }
      if (fast[k] > fast[best]) best = k;
    }
    if (best == lanes.size()) break;  // ladder exhausted
    const LaneDemand& d = lanes[best];
    const int target = rung_[d.lane] + 1;
    if (rung_[d.lane] == 0) bytes_at_rung_[d.lane][0] = fast[best];
    RetierBound bound;
    if (qos_mode_) {
      bound.min_descent_prefix = d.curve[used[best]].prefix;
    } else {
      bound = bound_for_rung(target, bytes_at_rung_[d.lane][0]);
    }
    const std::optional<u64> applied = apply(d.lane, target, bound);
    if (!applied) {
      stuck[best] = true;
      continue;
    }
    fast[best] = *applied;
    rung_[d.lane] = target;
    if (qos_mode_) {
      descent_[d.lane].push_back(CurveStep{d.curve[used[best]].prefix, *applied});
      ++used[best];
    } else {
      bytes_at_rung_[d.lane][static_cast<size_t>(target)] = *applied;
    }
    demote_stack_.push_back(d.lane);
    ++demotions_;
    recompute();
    push_event(epoch, *d.name, ArbiterAction::kDemote, target);
  }

  // Rung C: when even a fully demoted fleet cannot fit, stop admitting.
  // A withdrawn budget closes admission unconditionally, even on an empty
  // fleet — the host is quarantined, not merely full. QoS mode closes one
  // class per tick, bronze first, so gold admission survives transient
  // pressure spikes; a withdrawn budget still slams both gates at once.
  if (resident_ > budget || budget_withdrawn_) {
    if (!qos_mode_) {
      if (!admission_closed_) {
        admission_closed_ = true;
        ++admission_closures_;
        push_event(epoch, "", ArbiterAction::kCloseAdmission, 0);
      }
      return;
    }
    bool closed_this_tick = false;
    if (!closed_bronze_) {
      closed_bronze_ = true;
      admission_closed_ = true;
      ++admission_closures_;
      push_event(epoch, "bronze", ArbiterAction::kCloseAdmission, 0);
      closed_this_tick = true;
    }
    if (!closed_gold_ && (budget_withdrawn_ || !closed_this_tick)) {
      closed_gold_ = true;
      admission_closed_ = true;
      ++admission_closures_;
      push_event(epoch, "gold", ArbiterAction::kCloseAdmission, 0);
    }
    return;
  }

  // Recovery, in reverse ladder order: re-open admission first. QoS mode
  // reopens one class per tick, gold first (gold-protecting hysteresis:
  // gold traffic readmits before bronze may add pressure back).
  if (!qos_mode_) {
    if (admission_closed_) {
      admission_closed_ = false;
      push_event(epoch, "", ArbiterAction::kOpenAdmission, 0);
    }
  } else if (closed_gold_) {
    closed_gold_ = false;
    admission_closed_ = closed_bronze_;
    push_event(epoch, "gold", ArbiterAction::kOpenAdmission, 0);
  } else if (closed_bronze_) {
    closed_bronze_ = false;
    admission_closed_ = false;
    push_event(epoch, "bronze", ArbiterAction::kOpenAdmission, 0);
  }

  // ...then promote the most recently demoted lane one rung — at most one
  // per tick, and only when its recorded footprint at the target rung still
  // fits (hysteresis against demote/promote flapping).
  while (!demote_stack_.empty()) {
    const size_t lane = demote_stack_.back();
    size_t k = lanes.size();
    for (size_t j = 0; j < lanes.size(); ++j)
      if (lanes[j].lane == lane) {
        k = j;
        break;
      }
    if (k == lanes.size() || !lanes[k].active || !lanes[k].demotable ||
        rung_[lane] == 0) {
      // Stale: the lane finished or left kTiered. It keeps its rung, so it
      // keeps the descent that rung indexes: a later re-demotion pushes
      // onto it and promotion still replays it.
      demote_stack_.pop_back();
      continue;
    }
    const int target = rung_[lane] - 1;
    // QoS mode replays the recorded descent LIFO: the fit-check reads the
    // resident bytes observed when the lane landed at the target depth,
    // and the bound restores that depth's curve prefix (depth 0 =
    // unconstrained). Classic mode keeps the fixed-rung bookkeeping. A
    // depth/stack mismatch means the rungs predate QoS mode; fall back to
    // the classic path, which is exactly how they were built.
    const bool curve_walk =
        qos_mode_ && descent_[lane].size() == static_cast<size_t>(rung_[lane]);
    // Only the fixed ladder indexes bytes_at_rung_. A curve walk may run
    // deeper than max_rung_; the victim filter keeps it off fixed rungs,
    // so a mismatched depth never passes the fixed ladder.
    TOSS_ASSERT(curve_walk || target < max_rung_,
                "classic promotion past the fixed ladder");
    const u64 target_bytes =
        curve_walk ? (target == 0
                          ? bytes_at_rung_[lane][0]
                          : descent_[lane][static_cast<size_t>(target) - 1]
                                .fast_bytes)
                   : bytes_at_rung_[lane][static_cast<size_t>(target)];
    const u64 predicted = resident_ - fast[k] + target_bytes;
    if (predicted > budget) break;  // would re-demote next tick; hold
    RetierBound bound;
    if (curve_walk) {
      if (target > 0)
        bound.min_descent_prefix =
            descent_[lane][static_cast<size_t>(target) - 1].prefix;
    } else {
      bound = bound_for_rung(target, bytes_at_rung_[lane][0]);
    }
    const std::optional<u64> applied = apply(lane, target, bound);
    if (!applied) break;  // re-tier failed; retry next tick
    fast[k] = *applied;
    rung_[lane] = target;
    if (curve_walk) descent_[lane].pop_back();
    demote_stack_.pop_back();
    ++promotions_;
    recompute();
    push_event(epoch, *lanes[k].name, ArbiterAction::kPromote, target);
    break;
  }
}

ArbiterReport FastTierArbiter::report() const {
  ArbiterReport r;
  r.events = events_;
  r.demotions = demotions_;
  r.promotions = promotions_;
  r.keepalive_evictions = keepalive_evictions_;
  r.admission_closures = admission_closures_;
  r.peak_resident_fast_bytes = peak_resident_;
  r.final_resident_fast_bytes = resident_;
  r.admission_closed = admission_closed_;
  r.keepalive = warm_.stats();
  r.warm_count = warm_.warm_count();
  return r;
}

}  // namespace toss
