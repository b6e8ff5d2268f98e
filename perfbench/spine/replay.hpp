// Layer replay: rebuilds TossFunction::handle from the public calls of each
// simulator layer, timing every call with a span.
//
// A LaneReplay owns what one engine lane owns (its SnapshotStore, its
// FunctionModel and the TOSS state machine's fields) and steps through
// Steps I-IV exactly as src/core/toss.cpp does on its fault-free path:
//
//   Step I      FunctionModel::invoke, MicroVm::boot/execute/apply_writes/
//               take_snapshot, the two oracle hashes
//   Step II     VanillaPolicy::plan_restore, MicroVm::restore/execute,
//               PageAccessCounts::from_trace, DamonMonitor::monitor,
//               UnifiedPattern::add_record, the oracle hashes
//   Step III/IV analyze_pattern, tier_snapshot
//   tiered      SnapshotStore::fetch_tiered + verify_tiered,
//               TossPolicy::plan_restore, MicroVm::restore/execute, the
//               oracle hashes
//
// Fed the same requests, it must reproduce every simulated setup_ns and
// exec_ns of the measured run bit for bit; count_mismatches() checks that.
// The replay times the calls the program made when this benchmark was
// written: if the program stops making one (say, the oracle hashes), its
// span here goes stale until tracing moves inside the program.
#pragma once

#include <optional>
#include <vector>

#include "spine/spans.hpp"
#include "toss.hpp"

namespace spine {

/// Span names of the replay, interned once per Tracer.
struct ReplaySpans {
  explicit ReplaySpans(Tracer& tracer);

  u32 handle;  ///< root: one replayed request
  u32 invoke, drop_caches, boot, plan_restore, restore, execute, apply_writes,
      take_snapshot, fetch_verify, oracle_hash, oracle_authority_hash,
      from_trace, damon, unified_add, analyze, tier;
};

/// What one replayed request produced (the simulated fields compared
/// against the measured outcome).
struct ReplayStep {
  double setup_ns = 0;
  double exec_ns = 0;
  toss::TossPhase phase = toss::TossPhase::kInitial;
  bool memory_ok = true;
};

class LaneReplay {
 public:
  LaneReplay(const toss::SystemConfig& cfg, toss::FunctionSpec spec,
             toss::TossOptions options, u64 seed);
  LaneReplay(const LaneReplay&) = delete;
  LaneReplay& operator=(const LaneReplay&) = delete;

  ReplayStep handle(int input, u64 invocation_seed, Tracer& tracer,
                    const ReplaySpans& spans);

  toss::TossPhase phase() const { return phase_; }

 private:
  ReplayStep initial(const toss::Invocation& inv, Tracer& tracer,
                     const ReplaySpans& spans);
  ReplayStep profiling(const toss::Invocation& inv, Tracer& tracer,
                       const ReplaySpans& spans);
  ReplayStep tiered(const toss::Invocation& inv, Tracer& tracer,
                    const ReplaySpans& spans);
  void analyze(Tracer& tracer, const ReplaySpans& spans);

  toss::SystemConfig cfg_;
  toss::SnapshotStore store_;
  toss::FunctionModel model_;
  toss::TossOptions options_;
  toss::Rng rng_;
  toss::DamonMonitor damon_;
  toss::ReprofilePolicy reprofiler_;

  toss::TossPhase phase_ = toss::TossPhase::kInitial;
  u64 single_tier_id_ = 0;
  u64 tiered_id_ = 0;
  std::optional<toss::UnifiedPattern> unified_;
  std::optional<toss::TieringDecision> decision_;
  u64 damon_invocations_ = 0;
  struct Largest {
    int input = 0;
    u64 seed = 0;
    double exec_ns = 0;
  };
  std::optional<Largest> largest_;
};

/// Requests whose replayed (setup_ns, exec_ns) differ from the measured
/// outcome's, compared bit for bit; a length difference counts every
/// unmatched request.
size_t count_mismatches(const std::vector<toss::InvocationOutcome>& measured,
                        const std::vector<ReplayStep>& replayed);

}  // namespace spine
