// End-to-end tests for the tools/lint/ analyzer binary: each rule — the
// ported line rules and the layering / determinism passes —
// must fire on the bad fixture mini-project with a `file:line rule`
// diagnostic and a nonzero exit, the clean fixture project (sanctioned
// patterns + allow() trailers) must pass, --format=json must report the
// waiver usage CI budgets, and the real tree must currently be lint-clean
// (the same invariant the `toss_lint` ctest enforces, checked here so a
// fixture regression and a tree regression are distinguishable).
// tests/lint_internals_test.cpp covers the tokenizer and include graph at
// the library level.
//
// The binary path and source root arrive via compile definitions from
// tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

namespace {

struct LintRun {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

LintRun run_lint(const std::string& root, const std::string& flags = "") {
  const std::string cmd = std::string(TOSS_LINT_BIN) +
                          (flags.empty() ? "" : " " + flags) + " " + root +
                          " 2>&1";
  LintRun run;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return run;
  std::array<char, 4096> buf;
  size_t n = 0;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0)
    run.output.append(buf.data(), n);
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

std::string fixture(const std::string& name) {
  return std::string(TOSS_SOURCE_DIR) + "/tests/lint_fixtures/" + name;
}

TEST(TossLint, BadProjectFailsWithFileLineRuleDiagnostics) {
  const LintRun run = run_lint(fixture("proj_bad"));
  EXPECT_EQ(run.exit_code, 1) << run.output;

  // One representative `file:line rule` line per rule.
  EXPECT_NE(run.output.find("src/platform/bad_throw.cpp:4 platform-throw"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("src/platform/bad_throw.cpp:10 platform-throw"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("src/platform/bad_throw.cpp:14 raw-assert"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("src/core/bad_rand.cpp:6 nondeterminism"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("src/core/bad_rand.cpp:7 nondeterminism"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("src/mem/bad_thread.cpp:5 thread-spawn"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("src/util/missing_pragma.hpp:1 pragma-once"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("bench/bad_include.cpp:2 deep-include"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("src/core/bad_trailer.cpp:2 lint-usage"),
            std::string::npos)
      << run.output;
  // swallowed-error: catch-all, empty body on one line, and a body that
  // contains only a comment (stripped before matching, so still "empty").
  EXPECT_NE(run.output.find("src/core/bad_catch.cpp:7 swallowed-error"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("src/core/bad_catch.cpp:14 swallowed-error"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("src/core/bad_catch.cpp:20 swallowed-error"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("src/platform/bad_wait.cpp:10 unbounded-wait"),
            std::string::npos)
      << run.output;
  // host-internal: core reaching around the engine/cluster facades. The
  // clean project includes the same header from src/platform/, where it is
  // allowed (asserted via CleanProjectPasses). The same include now also
  // breaks the layer map (core sits below platform).
  EXPECT_NE(
      run.output.find("src/core/bad_host_include.cpp:3 host-internal"),
      std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("src/core/bad_host_include.cpp:3 layering"),
            std::string::npos)
      << run.output;
  // tier-alias: Tier::kFast/kSlow are gone project-wide — the clean
  // project's src/mem/ use survives only behind an allow() trailer.
  EXPECT_NE(run.output.find("src/core/bad_tier_alias.cpp:4 tier-alias"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("src/core/bad_tier_alias.cpp:7 tier-alias"),
            std::string::npos)
      << run.output;
  // layering: an upward include (mem -> platform) and a peer-layer include
  // (vmm -> damon), both checked on the include target as written.
  EXPECT_NE(run.output.find("src/mem/bad_layering.cpp:4 layering"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("src/vmm/bad_peer_include.cpp:3 layering"),
            std::string::npos)
      << run.output;
  // include-cycle: reported once, on the back edge that closes it.
  EXPECT_NE(run.output.find("src/core/cycle_b.hpp:3 include-cycle"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("src/core/cycle_a.hpp -> src/core/cycle_b.hpp "
                            "-> src/core/cycle_a.hpp"),
            std::string::npos)
      << run.output;
  // det-unordered-iter: both iteration shapes in a ledger-feeding TU.
  EXPECT_NE(run.output.find(
                "src/platform/bad_unordered_iter.cpp:17 det-unordered-iter"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find(
                "src/platform/bad_unordered_iter.cpp:20 det-unordered-iter"),
            std::string::npos)
      << run.output;
  // det-wallclock: clocks the legacy nondeterminism rule never covered.
  EXPECT_NE(run.output.find("src/core/bad_wallclock.cpp:7 det-wallclock"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("src/core/bad_wallclock.cpp:8 det-wallclock"),
            std::string::npos)
      << run.output;
  // det-ptr-key: pointer-ordered map and set.
  EXPECT_NE(run.output.find("src/core/bad_ptr_key.cpp:8 det-ptr-key"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("src/core/bad_ptr_key.cpp:9 det-ptr-key"),
            std::string::npos)
      << run.output;
  // det-fp-accum: shared += and atomic<double>::fetch_add inside the
  // lane executor's `.run_epoch(...)` call, and a shared += inside a
  // `->run_epoch(...)` call.
  EXPECT_NE(run.output.find("src/core/bad_fp_accum.cpp:18 det-fp-accum"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("src/core/bad_fp_accum.cpp:19 det-fp-accum"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("src/core/bad_fp_accum.cpp:26 det-fp-accum"),
            std::string::npos)
      << run.output;
  // det-unordered-iter is also rooted at the executor header: this file
  // reaches platform/concurrency.hpp but never metrics.hpp.
  EXPECT_NE(run.output.find(
                "src/platform/bad_executor_iter.cpp:16 det-unordered-iter"),
            std::string::npos)
      << run.output;
}

TEST(TossLint, CleanProjectPasses) {
  const LintRun run = run_lint(fixture("proj_clean"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("files clean"), std::string::npos) << run.output;
}

TEST(TossLint, SuppressionIsPerRule) {
  // The clean project's trailers waive specific rules; the bad project has
  // the same patterns unwaived. A trailer must not blanket-suppress: the
  // bad project's unknown-rule trailer still exits nonzero on its own.
  const LintRun bad = run_lint(fixture("proj_bad"));
  EXPECT_NE(bad.output.find("raw-assert"), std::string::npos);
  const LintRun clean = run_lint(fixture("proj_clean"));
  EXPECT_EQ(clean.output.find("raw-assert"), std::string::npos)
      << clean.output;
  EXPECT_EQ(clean.output.find("pragma-once"), std::string::npos)
      << clean.output;
  EXPECT_EQ(clean.output.find("swallowed-error"), std::string::npos)
      << clean.output;
  // good_wait.cpp: predicate waits and one allow(unbounded-wait) trailer.
  EXPECT_EQ(clean.output.find("unbounded-wait"), std::string::npos)
      << clean.output;
}

TEST(TossLint, RealTreeIsClean) {
  const LintRun run = run_lint(TOSS_SOURCE_DIR);
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(TossLint, JsonFormatListsFindingsAndWaivers) {
  // Clean project: no findings, but the waived list carries every allow()
  // trailer that actually suppressed something (CI diffs the count against
  // tools/lint/waiver_budget.txt).
  const LintRun clean = run_lint(fixture("proj_clean"), "--format=json");
  EXPECT_EQ(clean.exit_code, 0) << clean.output;
  EXPECT_NE(clean.output.find("\"findings\": []"), std::string::npos)
      << clean.output;
  EXPECT_NE(clean.output.find("\"waivers_used\""), std::string::npos)
      << clean.output;
  EXPECT_NE(clean.output.find("\"rule\": \"tier-alias\""), std::string::npos)
      << clean.output;

  // Bad project: findings appear with file/line/rule/message and the exit
  // code still signals failure.
  const LintRun bad = run_lint(fixture("proj_bad"), "--format=json");
  EXPECT_EQ(bad.exit_code, 1) << bad.output;
  EXPECT_NE(
      bad.output.find("{\"file\": \"src/core/bad_fp_accum.cpp\", "
                      "\"line\": 18, \"rule\": \"det-fp-accum\""),
      std::string::npos)
      << bad.output;
  EXPECT_NE(bad.output.find("\"rule\": \"include-cycle\""), std::string::npos)
      << bad.output;
}

TEST(TossLint, UsageErrorsExitTwo) {
  EXPECT_EQ(run_lint("/nonexistent-toss-root").exit_code, 2);
}

}  // namespace
