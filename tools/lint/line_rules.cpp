// The single-file line rules, ported from the original one-pass toss_lint
// and now running over the shared tokenizer's stripped lines:
//
//   deep-include     examples/ and bench/ may include only the umbrella
//                    header "toss.hpp" (plus the bench harness's own
//                    "common.hpp"); deep internal headers are
//                    implementation detail.
//   platform-throw   src/platform/ must not throw raw std:: exceptions or
//                    rethrow with a naked `throw;` — fallible paths go
//                    through toss::Error / Result<T>.
//   raw-assert       src/ must not use assert() — it vanishes under
//                    NDEBUG; invariants use the TOSS_ASSERT/REQUIRE/ENSURE
//                    contract macros.
//   nondeterminism   rand()/srand()/time()/std::random_device/
//                    system_clock are banned in src/ outside
//                    src/util/rng.* — every stochastic element must draw
//                    from a seeded toss::Rng. (The determinism auditor
//                    extends this to steady_clock and friends;
//                    tools/lint/determinism.cpp.)
//   thread-spawn     std::thread/std::jthread/std::async are banned in
//                    src/ outside src/platform/concurrency.* (the
//                    LaneExecutor).
//   pragma-once      every header in the scanned tree uses `#pragma once`.
//   swallowed-error  `catch (...)` and empty catch bodies are banned in
//                    src/ outside src/util/fault.*.
//   unbounded-wait   condition-variable `.wait(lock)` calls in src/ must
//                    pass a predicate (or use wait_for/wait_until).
//
// The old host-internal and tier-alias rules moved into the layering pass
// (tools/lint/layering.cpp), which checks them over the include graph and
// without directory carve-outs.
#include <cctype>

#include "lint.hpp"

namespace toss_lint {

namespace {

/// Shape of one catch handler, parsed from stripped code starting just
/// past the `catch` keyword. Because comments are blanked before parsing,
/// `catch (const Error&) { /* ignored */ }` still counts as an empty body —
/// a comment does not handle an error.
struct CatchShape {
  bool catch_all = false;   ///< parameter list is exactly `...`
  bool empty_body = false;  ///< `{ }` with nothing but whitespace inside
};

/// Inspect the catch handler whose keyword ends at (line, col), reading
/// ahead up to 6 stripped lines so split declarations still parse.
CatchShape inspect_catch(const std::vector<std::string>& code, size_t line,
                         size_t col) {
  std::string text = code[line].substr(col);
  for (size_t l = line + 1; l < code.size() && l < line + 6; ++l) {
    text += ' ';
    text += code[l];
  }
  CatchShape shape;
  size_t i = 0;
  const auto skip_ws = [&] {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i])))
      ++i;
  };
  skip_ws();
  if (i >= text.size() || text[i] != '(') return shape;
  const size_t params_begin = ++i;
  int depth = 1;
  while (i < text.size() && depth > 0) {
    if (text[i] == '(') ++depth;
    if (text[i] == ')') --depth;
    ++i;
  }
  if (depth != 0) return shape;
  std::string params = text.substr(params_begin, i - 1 - params_begin);
  size_t a = params.find_first_not_of(" \t");
  size_t b = params.find_last_not_of(" \t");
  shape.catch_all =
      a != std::string::npos && params.substr(a, b - a + 1) == "...";
  skip_ws();
  if (i < text.size() && text[i] == '{') {
    ++i;
    skip_ws();
    shape.empty_body = i < text.size() && text[i] == '}';
  }
  return shape;
}

/// True when the member call `.wait(args)` whose word starts at
/// (line, col) passes no predicate — a single argument, i.e. no comma at
/// paren depth 1. Reads ahead up to 6 stripped lines so split calls still
/// parse. Returns false for anything that is not a complete call.
bool wait_lacks_predicate(const std::vector<std::string>& code, size_t line,
                          size_t col) {
  std::string text = code[line].substr(col);
  for (size_t l = line + 1; l < code.size() && l < line + 6; ++l) {
    text += ' ';
    text += code[l];
  }
  size_t i = 4;  // past "wait"
  while (i < text.size() && text[i] == ' ') ++i;
  if (i >= text.size() || text[i] != '(') return false;
  int depth = 1;
  for (++i; i < text.size() && depth > 0; ++i) {
    if (text[i] == '(') ++depth;
    else if (text[i] == ')') --depth;
    else if (text[i] == ',' && depth == 1) return false;  // has a predicate
  }
  return depth == 0;
}

}  // namespace

void run_line_rules(const SourceFile& f, std::vector<Finding>& findings) {
  const bool in_src = f.under("src/");
  const bool in_platform = f.under("src/platform/");
  const bool umbrella_only = f.under("examples/") || f.under("bench/");
  const bool rng_exempt = f.stem_is("src/util/rng");
  const bool thread_exempt = f.stem_is("src/platform/concurrency");
  const bool catch_exempt = f.stem_is("src/util/fault");

  for (size_t i = 0; i < f.code.size(); ++i) {
    const std::string& code = f.code[i];
    const size_t line_no = i + 1;

    if (umbrella_only && code.find("#include \"") != std::string::npos) {
      for (const IncludeEdge& inc : f.includes) {
        if (inc.line != line_no) continue;
        if (inc.target != "toss.hpp" && inc.target != "common.hpp")
          findings.push_back(
              {f.rel, line_no, "deep-include",
               "includes internal header \"" + inc.target +
                   "\"; include \"toss.hpp\" instead"});
      }
    }

    if (in_platform) {
      for (size_t pos = code.find("throw"); pos != std::string::npos;
           pos = code.find("throw", pos + 1)) {
        if (!word_at(code, pos, "throw")) continue;
        size_t after = pos + 5;
        while (after < code.size() && code[after] == ' ') ++after;
        const bool rethrow = after >= code.size() || code[after] == ';';
        const bool toss_error = code.compare(after, 6, "Error(") == 0 ||
                                code.compare(after, 12, "toss::Error(") == 0 ||
                                code.compare(after, 14, "::toss::Error(") == 0;
        if (rethrow)
          findings.push_back(
              {f.rel, line_no, "platform-throw",
               "naked `throw;` in src/platform; surface failures as "
               "toss::Error / Result<T>"});
        else if (!toss_error)
          findings.push_back(
              {f.rel, line_no, "platform-throw",
               "raw throw in src/platform; throw toss::Error (or return "
               "Result<T>) so callers get an ErrorCode"});
      }
    }

    if (in_src && contains_call(code, "assert"))
      findings.push_back(
          {f.rel, line_no, "raw-assert",
           "raw assert() is compiled out under NDEBUG; use TOSS_ASSERT / "
           "TOSS_REQUIRE / TOSS_ENSURE from util/contracts.hpp"});

    if (in_src && !rng_exempt) {
      const bool hit = contains_call(code, "rand") ||
                       contains_call(code, "srand") ||
                       contains_call(code, "time") ||
                       contains_word(code, "random_device") ||
                       contains_word(code, "system_clock");
      if (hit)
        findings.push_back(
            {f.rel, line_no, "nondeterminism",
             "nondeterministic source outside src/util/rng; draw from a "
             "seeded toss::Rng instead"});
    }

    if (in_src && !thread_exempt) {
      const bool hit = contains_qualified(code, "std::", "thread") ||
                       contains_qualified(code, "std::", "jthread") ||
                       contains_qualified(code, "std::", "async");
      if (hit)
        findings.push_back(
            {f.rel, line_no, "thread-spawn",
             "thread creation outside platform/concurrency; run the work "
             "on a LaneExecutor"});
    }

    if (in_src) {
      // `.wait` only: word matching already excludes wait_for/wait_until/
      // wait_idle, and requiring the member dot skips free functions named
      // wait in other scopes.
      for (size_t pos = code.find("wait"); pos != std::string::npos;
           pos = code.find("wait", pos + 1)) {
        if (!word_at(code, pos, "wait")) continue;
        if (pos == 0 || code[pos - 1] != '.') continue;
        if (wait_lacks_predicate(f.code, i, pos))
          findings.push_back(
              {f.rel, line_no, "unbounded-wait",
               "wait without a shutdown/deadline predicate can hang "
               "forever; pass a predicate or use wait_for/wait_until"});
      }
    }

    if (in_src && !catch_exempt) {
      for (size_t pos = code.find("catch"); pos != std::string::npos;
           pos = code.find("catch", pos + 1)) {
        if (!word_at(code, pos, "catch")) continue;
        const CatchShape shape = inspect_catch(f.code, i, pos + 5);
        if (shape.catch_all)
          findings.push_back(
              {f.rel, line_no, "swallowed-error",
               "catch (...) discards the typed toss::Error; name the "
               "exception type so the recovery ladder can see it"});
        else if (shape.empty_body)
          findings.push_back(
              {f.rel, line_no, "swallowed-error",
               "empty catch body swallows the error; handle it, rethrow "
               "typed, or record why ignoring is safe"});
      }
    }
  }

  if (f.is_header()) {
    bool has_pragma = false;
    for (const std::string& code : f.code)
      if (code.find("#pragma once") != std::string::npos) has_pragma = true;
    if (!has_pragma)
      findings.push_back({f.rel, 1, "pragma-once",
                          "header lacks `#pragma once` (the project "
                          "does not use #ifndef guards)"});
  }
}

}  // namespace toss_lint
