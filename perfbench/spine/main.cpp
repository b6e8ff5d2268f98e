// perf_spine: run one workload of the perf spine and print its result.
//
//   perf_spine --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--trace-out <path>] [--tiny]
//
// Informational lines (ledger digest, sample counts, replay checks, gate
// failures) come first; the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"} holding every
// end-to-end metric (--trace 0) or every per-layer metric (--trace 1).
// Exit code 0 when a result was printed, 2 on bad arguments, 1 when the
// workload could not run at all.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "spine/workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perf_spine: %s\nusage: perf_spine --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>] [--tiny]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  spine::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      opt.scale = spine::Scale::kTiny;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload")
      opt.workload = value;
    else if (arg == "--seed")
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (arg == "--seconds")
      opt.seconds = std::atof(value.c_str());
    else if (arg == "--trace")
      opt.trace = value == "1";
    else if (arg == "--trace-out")
      opt.trace_path = value;
    else
      return usage(("unknown argument " + arg).c_str());
  }
  if (opt.workload.empty()) return usage("--workload is required");

  try {
    const spine::Report report = spine::run_workload(opt);
    for (const std::string& note : report.notes)
      std::printf("# %s\n", note.c_str());
    for (const std::string& failure : report.failures)
      std::printf("# GATE FAILED: %s\n", failure.c_str());
    std::printf("%s\n", spine::result_json(report, opt.trace).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_spine: %s\n", e.what());
    return 1;
  }
  return 0;
}
