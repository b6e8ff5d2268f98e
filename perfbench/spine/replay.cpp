#include "spine/replay.hpp"

#include <algorithm>
#include <cstring>

#include "core/reprofile.hpp"
#include "core/unified_pattern.hpp"
#include "trace/pattern.hpp"
#include "vmm/microvm.hpp"

using namespace toss;

namespace spine {

ReplaySpans::ReplaySpans(Tracer& t)
    : handle(t.intern("replay.handle")),
      invoke(t.intern("workloads.invoke")),
      drop_caches(t.intern("vmm.drop_caches")),
      boot(t.intern("vmm.boot")),
      plan_restore(t.intern("vmm.plan_restore")),
      restore(t.intern("vmm.restore")),
      execute(t.intern("vmm.execute")),
      apply_writes(t.intern("vmm.apply_writes")),
      take_snapshot(t.intern("vmm.take_snapshot")),
      fetch_verify(t.intern("vmm.fetch_verify")),
      oracle_hash(t.intern("vmm.oracle_hash")),
      oracle_authority_hash(t.intern("vmm.oracle_authority_hash")),
      from_trace(t.intern("trace.from_trace")),
      damon(t.intern("damon.monitor")),
      unified_add(t.intern("core.unified_add")),
      analyze(t.intern("core.analyze_pattern")),
      tier(t.intern("core.tier_snapshot")) {}

LaneReplay::LaneReplay(const SystemConfig& cfg, FunctionSpec spec,
                       TossOptions options, u64 seed)
    : cfg_(cfg),
      store_(cfg_),
      model_(std::move(spec)),
      options_(options),
      rng_(mix_seed(seed, model_.name())),
      damon_(options.damon),
      reprofiler_(options.reprofile_budget) {}

ReplayStep LaneReplay::handle(int input, u64 invocation_seed, Tracer& t,
                              const ReplaySpans& s) {
  const auto root = t.span(s.handle);
  if (options_.drop_caches_between_invocations) {
    const auto span = t.span(s.drop_caches);
    store_.drop_caches();
  }
  const Invocation inv = [&] {
    const auto span = t.span(s.invoke);
    return model_.invoke(input, invocation_seed);
  }();
  switch (phase_) {
    case TossPhase::kInitial: return initial(inv, t, s);
    case TossPhase::kProfiling: return profiling(inv, t, s);
    case TossPhase::kTiered: break;
  }
  return tiered(inv, t, s);
}

ReplayStep LaneReplay::initial(const Invocation& inv, Tracer& t,
                               const ReplaySpans& s) {
  ReplayStep out;
  out.phase = TossPhase::kInitial;
  MicroVm vm(cfg_, store_);
  {
    const auto span = t.span(s.boot);
    out.setup_ns = vm.boot(model_.guest_bytes(), VmState{}).setup_ns;
  }
  {
    const auto span = t.span(s.execute);
    out.exec_ns = vm.execute(inv.trace, inv.cpu_ns).exec_ns;
  }
  {
    const auto span = t.span(s.apply_writes);
    vm.apply_writes(inv.trace);
  }
  {
    const auto span = t.span(s.take_snapshot);
    single_tier_id_ = vm.take_snapshot();
  }
  u64 observed = 0, expected = 0;
  {
    const auto span = t.span(s.oracle_hash);
    observed = hash_memory(vm.memory());
  }
  {
    const auto span = t.span(s.oracle_authority_hash);
    expected = hash_memory(store_.fetch_single_tier(single_tier_id_).materialize());
  }
  out.memory_ok = observed == expected;
  unified_.emplace(model_.guest_pages(), options_.unified_change_epsilon);
  largest_ = Largest{inv.input, inv.seed, out.exec_ns};
  phase_ = TossPhase::kProfiling;
  return out;
}

ReplayStep LaneReplay::profiling(const Invocation& inv, Tracer& t,
                                 const ReplaySpans& s) {
  ReplayStep out;
  out.phase = TossPhase::kProfiling;
  MicroVm vm(cfg_, store_);
  const SingleTierSnapshot* snap = store_.get_single_tier(single_tier_id_);
  RestorePlan plan;
  {
    const auto span = t.span(s.plan_restore);
    plan = VanillaPolicy(store_, single_tier_id_).plan_restore();
  }
  {
    const auto span = t.span(s.restore);
    out.setup_ns = vm.restore(plan).setup_ns;
  }
  ExecutionResult exec;
  {
    const auto span = t.span(s.execute);
    exec = vm.execute(inv.trace, inv.cpu_ns);
  }
  const PageAccessCounts counts = [&] {
    const auto span = t.span(s.from_trace);
    return PageAccessCounts::from_trace(inv.trace, model_.guest_pages());
  }();
  const DamonOutput damon_out = [&] {
    const auto span = t.span(s.damon);
    return damon_.monitor(counts, exec.exec_ns, rng_);
  }();
  exec.exec_ns += damon_out.overhead_ns;
  out.exec_ns = exec.exec_ns;
  ++damon_invocations_;

  u64 observed = 0, expected = 0;
  {
    const auto span = t.span(s.oracle_hash);
    observed = hash_memory(vm.memory());
  }
  {
    const auto span = t.span(s.oracle_authority_hash);
    expected = hash_memory(snap->materialize());
  }
  out.memory_ok = observed == expected;

  if (!largest_ || exec.exec_ns > largest_->exec_ns)
    largest_ = Largest{inv.input, inv.seed, exec.exec_ns};
  {
    const auto span = t.span(s.unified_add);
    unified_->add_record(damon_out.record);
  }
  if (unified_->stable_streak() >= options_.stable_invocations ||
      unified_->records_merged() >= options_.max_profiling_invocations)
    analyze(t, s);
  return out;
}

void LaneReplay::analyze(Tracer& t, const ReplaySpans& s) {
  const Invocation representative = [&] {
    const auto span = t.span(s.invoke);
    return model_.invoke(largest_->input, largest_->seed);
  }();
  TieringOptions topt;
  topt.bin_count = options_.bin_count;
  topt.slowdown_threshold = options_.slowdown_threshold;
  topt.slo_slowdown = options_.slo_slowdown;
  {
    const auto span = t.span(s.analyze);
    decision_ = analyze_pattern(cfg_, unified_->counts(), representative, topt);
  }
  {
    const auto span = t.span(s.tier);
    tiered_id_ = tier_snapshot(store_, *store_.get_single_tier(single_tier_id_),
                               decision_->placement);
  }
  std::vector<double> bin_slowdowns;
  for (const BinStep& step : decision_->profile.steps)
    bin_slowdowns.push_back(step.marginal_slowdown);
  reprofiler_ = ReprofilePolicy(options_.reprofile_budget);
  reprofiler_.arm(damon_invocations_, bin_slowdowns, largest_->exec_ns,
                  std::max(0.0, decision_->profile.full_slow_slowdown() - 1.0));
  phase_ = TossPhase::kTiered;
}

ReplayStep LaneReplay::tiered(const Invocation& inv, Tracer& t,
                              const ReplaySpans& s) {
  ReplayStep out;
  out.phase = TossPhase::kTiered;
  MicroVm vm(cfg_, store_);
  {
    const auto span = t.span(s.fetch_verify);
    store_.fetch_tiered(tiered_id_);
    out.memory_ok = store_.verify_tiered(tiered_id_).ok();
  }
  RestorePlan plan;
  {
    const auto span = t.span(s.plan_restore);
    plan = TossPolicy(store_, tiered_id_).plan_restore();
  }
  {
    const auto span = t.span(s.restore);
    out.setup_ns = vm.restore(plan).setup_ns;
  }
  {
    const auto span = t.span(s.execute);
    out.exec_ns = vm.execute(inv.trace, inv.cpu_ns).exec_ns;
  }
  u64 observed = 0, expected = 0;
  {
    const auto span = t.span(s.oracle_hash);
    observed = hash_memory(vm.memory());
  }
  {
    const auto span = t.span(s.oracle_authority_hash);
    expected = hash_memory(store_.get_single_tier(single_tier_id_)->materialize());
  }
  out.memory_ok = out.memory_ok && observed == expected;
  // Eq 2-4 drift: re-enter profiling, keeping the unified pattern.
  if (reprofiler_.observe(out.exec_ns)) phase_ = TossPhase::kProfiling;
  return out;
}

size_t count_mismatches(const std::vector<InvocationOutcome>& measured,
                        const std::vector<ReplayStep>& replayed) {
  const auto same = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  };
  const size_t common = std::min(measured.size(), replayed.size());
  size_t mismatches = std::max(measured.size(), replayed.size()) - common;
  for (size_t i = 0; i < common; ++i)
    if (!same(measured[i].result.setup.setup_ns, replayed[i].setup_ns) ||
        !same(measured[i].result.exec.exec_ns, replayed[i].exec_ns))
      ++mismatches;
  return mismatches;
}

}  // namespace spine
