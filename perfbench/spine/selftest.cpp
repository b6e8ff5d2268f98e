// Unit checks of the perf spine's own machinery: the tail-percentile rule
// and the replay checker. run.py --self-test runs this, then a tiny-fleet
// smoke run of every workload. Exit code 0 = all checks passed.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "spine/replay.hpp"
#include "spine/spans.hpp"
#include "toss.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void percentile_rule() {
  // Highest percentile with at least ten samples beyond its rank.
  expect(spine::tail_percentile_for(10000) == 99.9, "n=10000 reports p99.9");
  expect(spine::tail_percentile_for(9999) == 99.0, "n=9999 reports p99");
  expect(spine::tail_percentile_for(1000) == 99.0, "n=1000 reports p99");
  expect(spine::tail_percentile_for(999) == 95.0, "n=999 reports p95");
  expect(spine::tail_percentile_for(200) == 95.0, "n=200 reports p95");
  expect(spine::tail_percentile_for(100) == 90.0, "n=100 reports p90");
  expect(spine::tail_percentile_for(40) == 75.0, "n=40 reports p75");
  expect(spine::tail_percentile_for(20) == 50.0, "n=20 falls back to p50");

  std::vector<double> sorted;
  for (int i = 1; i <= 100; ++i) sorted.push_back(i);
  expect(spine::percentile(sorted, 50) == 50, "nearest-rank p50 of 1..100");
  expect(spine::percentile(sorted, 99) == 99, "nearest-rank p99 of 1..100");
  expect(spine::percentile(sorted, 99.9) == 100, "nearest-rank p99.9 of 1..100");
  expect(spine::percentile({7}, 99) == 7, "single sample");
}

void replay_checker() {
  using namespace toss;
  const SystemConfig cfg = SystemConfig::paper_default();
  FunctionSpec spec = workloads::all_functions().front();
  TossOptions options;
  options.stable_invocations = 2;
  options.max_profiling_invocations = 3;
  const u64 seed = 11;

  // The measured side: a platform serving the requests as an engine lane
  // does.
  ServerlessPlatform platform(cfg);
  platform
      .register_function(FunctionRegistration(spec)
                             .policy(PolicyKind::kToss)
                             .toss(options)
                             .seed(seed))
      .value();
  const std::vector<Request> requests = RequestGenerator::round_robin(8, 5);
  std::vector<InvocationOutcome> measured;
  for (const Request& r : requests)
    measured.push_back(platform.invoke(spec.name, r.input, r.seed).value());

  spine::Tracer tracer;
  const spine::ReplaySpans spans(tracer);
  spine::LaneReplay lane(cfg, spec, options, seed);
  std::vector<spine::ReplayStep> replayed;
  for (const Request& r : requests)
    replayed.push_back(lane.handle(r.input, r.seed, tracer, spans));

  expect(lane.phase() == TossPhase::kTiered, "replay reaches kTiered");
  expect(spine::count_mismatches(measured, replayed) == 0,
         "replay reproduces every (setup_ns, exec_ns)");

  std::vector<InvocationOutcome> perturbed = measured;
  perturbed[5].result.exec.exec_ns =
      std::nextafter(perturbed[5].result.exec.exec_ns, 0.0);
  expect(spine::count_mismatches(perturbed, replayed) == 1,
         "a one-ulp exec_ns perturbation is caught");
  perturbed = measured;
  perturbed[2].result.setup.setup_ns += 1;
  expect(spine::count_mismatches(perturbed, replayed) == 1,
         "a setup_ns perturbation is caught");
  perturbed = measured;
  perturbed.pop_back();
  expect(spine::count_mismatches(perturbed, replayed) == 1,
         "a missing outcome is caught");

  // Spans nest under the per-request root and carry the request id.
  tracer.set_request(42);
  lane.handle(0, 99, tracer, spans);
  const std::vector<spine::Span>& all = tracer.spans();
  size_t root = all.size();
  for (size_t i = 0; i < all.size(); ++i)
    if (all[i].request == 42 && all[i].name == spans.handle) root = i;
  bool nested = root < all.size();
  for (size_t i = root + 1; i < all.size() && nested; ++i)
    nested = all[i].request == 42 && all[i].parent == root + 1;
  expect(nested, "replay spans nest under their request's root span");
}

}  // namespace

int main() {
  percentile_rule();
  replay_checker();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
