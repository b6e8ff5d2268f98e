// Fault-recovery bench: latency of the self-healing snapshot path as a
// function of the injected fault rate.
//
// A fleet of TOSS lanes cycles the Table-I functions while every snapshot
// failure domain (torn puts, tier-file bitrot/truncation, restore mmap
// failures, slow-tier stalls, guest crashes) fires at a swept base rate.
// For each rate the harness reports end-to-end invocation latency (p50 /
// p99 / mean) next to the recovery ledger: faults seen, retries spent,
// fallbacks taken, quarantines and Step-V regenerations — and the oracle
// violation count, which must be zero: recovery is allowed to cost time,
// never correctness.
//
// Results land in fault_recovery.json under the bench artifact directory
// (--out-dir=PATH, default <build>/bench_artifacts).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "toss.hpp"

#include "common.hpp"

using namespace toss;

namespace {

constexpr size_t kFleetSize = 8;
constexpr size_t kRequestsPerFunction = 50;
constexpr int kThreads = 4;
constexpr double kRates[] = {0.0, 0.01, 0.02, 0.05, 0.10};

/// Every failure domain armed, scaled from one base rate. The relative
/// weights mirror tests/chaos_test.cpp: writes tear more often than data
/// rots, and crashes are the rarest event.
FaultPlan plan_for(double rate, u64 seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.set(FaultSite::kPutSingleTier, {.probability = rate});
  plan.set(FaultSite::kPutTiered, {.probability = 2 * rate});
  plan.set(FaultSite::kTierBitrot, {.probability = rate});
  plan.set(FaultSite::kTierTruncate, {.probability = 0.5 * rate});
  plan.set(FaultSite::kRestoreMapping, {.probability = rate});
  plan.set(FaultSite::kSlowTierStall,
           {.probability = rate, .delay_ns = ms(2)});
  plan.set(FaultSite::kExecCrash, {.probability = 0.5 * rate});
  return plan;
}

struct RateRow {
  double rate = 0;
  u64 invocations = 0;
  double p50_ms = 0, p99_ms = 0, mean_ms = 0;
  u64 faults = 0, retries = 0, fallbacks = 0, quarantines = 0;
  u64 regenerations = 0, incomplete = 0, oracle_violations = 0;
};

double percentile_ms(std::vector<Nanos>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t idx = std::min(
      v.size() - 1,
      static_cast<size_t>(p / 100.0 * static_cast<double>(v.size())));
  return to_ms(v[idx]);
}

RateRow run_rate(double rate) {
  EngineOptions opts;
  opts.threads = kThreads;
  opts.fault_plan = plan_for(rate, /*seed=*/4242);
  auto engine = std::make_unique<PlatformEngine>(
      SystemConfig::paper_default(), PricingPlan{}, opts);

  const std::vector<FunctionSpec> base = workloads::all_functions();
  TossOptions toss;
  toss.stable_invocations = 5;
  toss.max_profiling_invocations = 40;
  for (size_t i = 0; i < kFleetSize; ++i) {
    FunctionSpec spec = base[i % base.size()];
    spec.name += "#" + std::to_string(i);
    auto requests = RequestGenerator::round_robin(
        kRequestsPerFunction, mix_seed(9000 + i, spec.name));
    engine
        ->add(FunctionRegistration(std::move(spec)).toss(toss).seed(500 + i),
              std::move(requests))
        .value();
  }

  const EngineReport report = engine->run().value();
  RateRow row;
  row.rate = rate;
  std::vector<Nanos> latencies;
  for (const FunctionReport& f : report.functions) {
    row.invocations += f.stats.invocations;
    row.faults += f.stats.recovered_faults;
    row.retries += f.stats.recovery_retries;
    row.fallbacks += f.stats.fallbacks();
    row.quarantines += f.stats.quarantines;
    row.regenerations += f.stats.regenerations;
    row.incomplete += f.stats.incomplete;
    for (const InvocationOutcome& o : f.outcomes) {
      latencies.push_back(o.result.total_ns());
      if (o.recovery.completed && !o.recovery.memory_ok())
        ++row.oracle_violations;
    }
  }
  double sum = 0;
  for (Nanos t : latencies) sum += static_cast<double>(t);
  row.mean_ms =
      latencies.empty() ? 0 : to_ms(sum / static_cast<double>(latencies.size()));
  row.p50_ms = percentile_ms(latencies, 50);
  row.p99_ms = percentile_ms(latencies, 99);
  return row;
}

void write_json(const std::string& path, const std::vector<RateRow>& rows) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::printf("cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out,
               "{\"bench\":\"fault_recovery\",\"fleet\":%zu,"
               "\"requests_per_function\":%zu,\"rates\":[",
               kFleetSize, kRequestsPerFunction);
  for (size_t i = 0; i < rows.size(); ++i) {
    const RateRow& r = rows[i];
    std::fprintf(
        out,
        "%s{\"rate\":%g,\"invocations\":%llu,\"p50_ms\":%.4f,"
        "\"p99_ms\":%.4f,\"mean_ms\":%.4f,\"faults\":%llu,\"retries\":%llu,"
        "\"fallbacks\":%llu,\"quarantines\":%llu,\"regenerations\":%llu,"
        "\"incomplete\":%llu,\"oracle_violations\":%llu}",
        i ? "," : "", r.rate, static_cast<unsigned long long>(r.invocations),
        r.p50_ms, r.p99_ms, r.mean_ms,
        static_cast<unsigned long long>(r.faults),
        static_cast<unsigned long long>(r.retries),
        static_cast<unsigned long long>(r.fallbacks),
        static_cast<unsigned long long>(r.quarantines),
        static_cast<unsigned long long>(r.regenerations),
        static_cast<unsigned long long>(r.incomplete),
        static_cast<unsigned long long>(r.oracle_violations));
  }
  std::fprintf(out, "]}\n");
  std::fclose(out);
  std::printf("artifact: %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "%6s %8s %8s %8s %7s %7s %6s %6s %6s %6s %7s\n", "rate", "p50ms",
      "p99ms", "meanms", "faults", "retries", "fallbk", "quar", "regen",
      "incmp", "oracle!");

  std::vector<RateRow> rows;
  u64 violations = 0;
  for (const double rate : kRates) {
    const RateRow row = run_rate(rate);
    violations += row.oracle_violations;
    std::printf(
        "%6.3f %8.3f %8.3f %8.3f %7llu %7llu %6llu %6llu %6llu %6llu "
        "%7llu\n",
        row.rate, row.p50_ms, row.p99_ms, row.mean_ms,
        static_cast<unsigned long long>(row.faults),
        static_cast<unsigned long long>(row.retries),
        static_cast<unsigned long long>(row.fallbacks),
        static_cast<unsigned long long>(row.quarantines),
        static_cast<unsigned long long>(row.regenerations),
        static_cast<unsigned long long>(row.incomplete),
        static_cast<unsigned long long>(row.oracle_violations));
    rows.push_back(row);
  }

  write_json(toss::bench::artifact_path(argc, argv, "fault_recovery.json"),
             rows);
  // Completed-but-wrong-memory is the one failure recovery must never
  // allow; make the bench a checkable gate, not just a plot.
  return violations == 0 ? 0 : 1;
}
