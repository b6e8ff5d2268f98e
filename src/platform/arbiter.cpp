#include "platform/arbiter.hpp"

#include <algorithm>

namespace toss {

FastTierArbiter::FastTierArbiter(ArbiterOptions options, u64 fast_budget_bytes)
    : options_(options),
      budget_(fast_budget_bytes),
      warm_(KeepAliveConfig{.dram_capacity_bytes = fast_budget_bytes}) {}

void FastTierArbiter::push_event(u64 epoch, std::string function,
                                 ArbiterAction action, int rung) {
  events_.push_back(
      ArbiterEvent{epoch, std::move(function), action, rung, resident_});
}

void FastTierArbiter::set_gate(u64 epoch, QosClass cls, bool closed) {
  bool& gate = cls == QosClass::kBronze ? closed_bronze_ : closed_gold_;
  if (gate == closed) return;
  gate = closed;
  if (closed) ++admission_closures_;
  push_event(epoch, qos_class_name(cls),
             closed ? ArbiterAction::kCloseAdmission
                    : ArbiterAction::kOpenAdmission,
             0);
}

void FastTierArbiter::tick(u64 epoch, const std::vector<LaneDemand>& lanes,
                           const ApplyRung& apply) {
  // Working copy of each lane's fast footprint so ladder moves update the
  // accounting mid-tick. A gate may close only while some live lane reads
  // it (active or idle): kNone lanes read the gold gate.
  std::vector<u64> fast(lanes.size(), 0);
  bool gold_present = false;
  bool bronze_present = false;
  for (size_t k = 0; k < lanes.size(); ++k) {
    const LaneDemand& d = lanes[k];
    if (d.lane >= state_.size()) state_.resize(d.lane + 1);
    if (d.qos == QosClass::kBronze)
      bronze_present = true;
    else
      gold_present = true;
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
                   d.predicted_reuse_gap_ns);
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
  // counts curve steps consumed this tick: the demand's curve was
  // snapshotted before any re-tier, so mid-tick demotions keep walking the
  // same absolute-prefix candidates.
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
    // Rung B: class outranks footprint (bronze lanes walk their curves to
    // exhaustion before an unclassed lane moves, gold last), then the
    // largest footprint; ties break toward the lowest lane index.
    size_t best = lanes.size();
    for (size_t k = 0; k < lanes.size(); ++k) {
      const LaneDemand& d = lanes[k];
      if (!d.active || !d.demotable || stuck[k] || used[k] >= d.curve.size())
        continue;
      if (best == lanes.size()) {
        best = k;
        continue;
      }
      const int rk = qos_shed_rank(d.qos);
      const int rb = qos_shed_rank(lanes[best].qos);
      if (rk != rb) {
        if (rk < rb) best = k;
        continue;
      }
      if (fast[k] > fast[best]) best = k;
    }
    if (best == lanes.size()) break;  // every curve exhausted
    const LaneDemand& d = lanes[best];
    LaneState& state = state_[d.lane];
    const size_t prefix = d.curve[used[best]].prefix;
    const int target = static_cast<int>(state.descent.size()) + 1;
    RetierBound bound;
    bound.min_descent_prefix = prefix;
    const std::optional<u64> applied = apply(d.lane, target, bound);
    if (!applied) {
      stuck[best] = true;
      continue;
    }
    if (state.descent.empty()) state.undemoted_fast_bytes = fast[best];
    state.descent.push_back(CurveStep{prefix, *applied});
    ++used[best];
    fast[best] = *applied;
    demote_stack_.push_back(d.lane);
    ++demotions_;
    recompute();
    push_event(epoch, *d.name, ArbiterAction::kDemote, target);
  }

  // Rung C. A withdrawn budget closes every present class's gate at once,
  // even on a fleet that fits — the host is quarantined, not merely full.
  // Otherwise, when even a fully demoted fleet cannot fit, one gate closes
  // per tick, bronze first, so gold admission survives transient pressure
  // spikes.
  if (budget_withdrawn_) {
    if (bronze_present) set_gate(epoch, QosClass::kBronze, true);
    if (gold_present) set_gate(epoch, QosClass::kGold, true);
    return;
  }
  if (resident_ > budget) {
    if (bronze_present && !closed_bronze_)
      set_gate(epoch, QosClass::kBronze, true);
    else if (gold_present)
      set_gate(epoch, QosClass::kGold, true);
    return;
  }

  // Recovery, in reverse ladder order: reopen one gate per tick, gold first
  // (gold traffic readmits before bronze may add pressure back)...
  if (closed_gold_)
    set_gate(epoch, QosClass::kGold, false);
  else if (closed_bronze_)
    set_gate(epoch, QosClass::kBronze, false);

  // ...then promote the most recently demoted lane one step back up its
  // recorded descent — at most one per tick, and only when the footprint
  // recorded at the target depth still fits (hysteresis against
  // demote/promote flapping).
  while (!demote_stack_.empty()) {
    const size_t lane = demote_stack_.back();
    size_t k = lanes.size();
    for (size_t j = 0; j < lanes.size(); ++j)
      if (lanes[j].lane == lane) {
        k = j;
        break;
      }
    LaneState& state = state_[lane];
    if (k == lanes.size() || !lanes[k].active || !lanes[k].demotable ||
        state.descent.empty()) {
      // Stale: the lane finished or left kTiered. It keeps its descent: a
      // later re-demotion pushes onto it and promotion still replays it.
      demote_stack_.pop_back();
      continue;
    }
    // Depth d-1 = the descent without its last step; depth 0 is the
    // unconstrained placement (trivial bound).
    const size_t target = state.descent.size() - 1;
    const u64 target_bytes = target == 0
                                 ? state.undemoted_fast_bytes
                                 : state.descent[target - 1].fast_bytes;
    const u64 predicted = resident_ - fast[k] + target_bytes;
    if (predicted > budget) break;  // would re-demote next tick; hold
    RetierBound bound;
    if (target > 0) bound.min_descent_prefix = state.descent[target - 1].prefix;
    const std::optional<u64> applied =
        apply(lane, static_cast<int>(target), bound);
    if (!applied) break;  // re-tier failed; retry next tick
    fast[k] = *applied;
    state.descent.pop_back();
    demote_stack_.pop_back();
    ++promotions_;
    recompute();
    push_event(epoch, *lanes[k].name, ArbiterAction::kPromote,
               static_cast<int>(target));
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
  r.admission_closed = admission_closed();
  r.keepalive = warm_.stats();
  r.warm_count = warm_.warm_count();
  return r;
}

}  // namespace toss
