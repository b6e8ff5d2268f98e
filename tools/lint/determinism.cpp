// Determinism auditor. The replay contract (DESIGN.md §2, §12) says two
// runs with the same seed produce byte-identical metrics ledgers; these
// four rules catch the code shapes that break it:
//
//   det-unordered-iter  iterating an unordered container in a
//                       ledger-feeding TU (any file whose transitive
//                       includes reach platform/metrics.hpp or
//                       platform/cluster.hpp — where the cluster's
//                       migration/failover/health ledgers live — plus
//                       the headers in those closures). Hash order is
//                       unspecified and varies across libstdc++ versions
//                       and ASLR, so whatever is accumulated during the
//                       walk diverges. Membership tests are fine; only
//                       range-for and begin()-family calls are flagged.
//   det-wallclock       steady_clock / high_resolution_clock /
//                       clock_gettime / gettimeofday anywhere outside
//                       bench/ — simulated time comes from the virtual
//                       clock, and reports hold simulated state only;
//                       real time is allowed only in the bench harness,
//                       which times its own run() calls.
//                       Under tools/ (which the src/-only nondeterminism
//                       rule never covered) this also bans system_clock,
//                       random_device, and rand/srand/time calls.
//   det-ptr-key         std::map/set/multimap/multiset/priority_queue/
//                       less with a pointer-valued first template
//                       argument in src/. Pointer order is allocation
//                       order, which ASLR reshuffles every run.
//   det-fp-accum        `+=`/`-=` on a floating-point symbol, or
//                       fetch_add on an atomic<double>, lexically inside
//                       a .run_epoch(...) call — the LaneExecutor's
//                       fan-out point, where indices run in whatever
//                       order the participants claim them. FP addition
//                       is non-associative, so a racy accumulation order
//                       changes the low bits run to run. Accumulate
//                       per-task and reduce in index order instead.
//
// All four run on the token stream, so string literals and comments never
// trip them — which is also what lets this file self-host.
#include <algorithm>

#include "lint.hpp"

namespace toss_lint {

namespace {

bool any_of(const std::string& s, std::initializer_list<const char*> set) {
  for (const char* v : set)
    if (s == v) return true;
  return false;
}

bool is_punct(const Token& t, const char* text) {
  return t.kind == Token::Kind::kPunct && t.text == text;
}

/// t[i] is the '<' opening a template argument list; return the index just
/// past the matching '>'. The lexer keeps ">>" as one token, which closes
/// two levels. Returns t.size() when unmatched.
size_t skip_template_args(const std::vector<Token>& t, size_t i) {
  int depth = 1;
  for (size_t j = i + 1; j < t.size(); ++j) {
    if (t[j].kind != Token::Kind::kPunct) continue;
    if (t[j].text == "<") ++depth;
    else if (t[j].text == "<<") depth += 2;
    else if (t[j].text == ">") --depth;
    else if (t[j].text == ">>") depth -= 2;
    if (depth <= 0) return j + 1;
  }
  return t.size();
}

/// Names declared with an unordered container type in `f`:
/// `std::unordered_map<K, V> name` and friends. The name must not open a
/// call (that would be a function returning the container).
std::set<std::string> unordered_decls(const SourceFile& f) {
  std::set<std::string> out;
  const std::vector<Token>& t = f.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent ||
        !any_of(t[i].text, {"unordered_map", "unordered_set",
                            "unordered_multimap", "unordered_multiset"}))
      continue;
    if (i + 1 >= t.size() || !is_punct(t[i + 1], "<")) continue;
    const size_t after = skip_template_args(t, i + 1);
    if (after < t.size() && t[after].kind == Token::Kind::kIdent &&
        (after + 1 >= t.size() || !is_punct(t[after + 1], "(")))
      out.insert(t[after].text);
  }
  return out;
}

/// Report range-for loops and begin()-family calls over symbols in `syms`.
void flag_unordered_iteration(const SourceFile& f,
                              const std::set<std::string>& syms,
                              std::vector<Finding>& findings) {
  const std::vector<Token>& t = f.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    // sym.begin() / sym->cbegin() / ...
    if (t[i].kind == Token::Kind::kIdent &&
        any_of(t[i].text, {"begin", "cbegin", "rbegin", "crbegin"}) &&
        i >= 2 && i + 1 < t.size() && is_punct(t[i + 1], "(") &&
        (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->")) &&
        t[i - 2].kind == Token::Kind::kIdent && syms.count(t[i - 2].text)) {
      findings.push_back(
          {f.rel, t[i].line, "det-unordered-iter",
           "'" + t[i - 2].text + "." + t[i].text +
               "()' walks an unordered container in a ledger-feeding TU; "
               "hash order varies run to run — use std::map/std::set or "
               "sort a snapshot first"});
    }
    // for ( ... : sym )
    if (t[i].kind != Token::Kind::kIdent || t[i].text != "for") continue;
    if (i + 1 >= t.size() || !is_punct(t[i + 1], "(")) continue;
    int depth = 1;
    size_t colon = 0;
    bool ternary = false;
    size_t j = i + 2;
    for (; j < t.size() && depth > 0; ++j) {
      if (t[j].kind != Token::Kind::kPunct) continue;
      if (t[j].text == "(" || t[j].text == "[") ++depth;
      else if (t[j].text == ")" || t[j].text == "]") --depth;
      else if (t[j].text == "?" && depth == 1) ternary = true;
      else if (t[j].text == ":" && depth == 1) {
        if (ternary) ternary = false;
        else if (colon == 0) colon = j;
      } else if (t[j].text == ";" && depth == 1) {
        colon = 0;  // classic three-clause for, not a range-for
        break;
      }
    }
    if (colon == 0) continue;
    // Iterated expression = tokens (colon, j-1); its last identifier is
    // the container (handles `counts_`, `store.items_`, `*view`).
    std::string last_ident;
    for (size_t k = colon + 1; k + 1 < j; ++k)
      if (t[k].kind == Token::Kind::kIdent) last_ident = t[k].text;
    if (!last_ident.empty() && syms.count(last_ident))
      findings.push_back(
          {f.rel, t[i].line, "det-unordered-iter",
           "range-for over unordered container '" + last_ident +
               "' in a ledger-feeding TU; hash order varies run to run — "
               "use std::map/std::set or sort a snapshot first"});
  }
}

void check_wallclock(const SourceFile& f, std::vector<Finding>& findings) {
  for (const Token& t : f.tokens) {
    if (t.kind != Token::Kind::kIdent) continue;
    if (any_of(t.text, {"steady_clock", "high_resolution_clock",
                        "clock_gettime", "gettimeofday"}))
      findings.push_back(
          {f.rel, t.line, "det-wallclock",
           "wall-clock source '" + t.text +
               "' outside bench/; simulated time comes from the virtual "
               "clock — time a run from bench/ instead"});
  }
  if (!f.under("tools/")) return;
  for (size_t i = 0; i < f.code.size(); ++i) {
    const std::string& code = f.code[i];
    const bool hit = contains_call(code, "rand") ||
                     contains_call(code, "srand") ||
                     contains_call(code, "time") ||
                     contains_word(code, "random_device") ||
                     contains_word(code, "system_clock");
    if (hit)
      findings.push_back(
          {f.rel, i + 1, "det-wallclock",
           "nondeterministic source in tools/; tools replay ledgers and "
           "must be as reproducible as src/"});
  }
}

void check_ptr_keys(const SourceFile& f, std::vector<Finding>& findings) {
  const std::vector<Token>& t = f.tokens;
  for (size_t i = 2; i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent ||
        !any_of(t[i].text, {"map", "set", "multimap", "multiset",
                            "priority_queue", "less"}))
      continue;
    if (!is_punct(t[i - 1], "::") || t[i - 2].kind != Token::Kind::kIdent ||
        t[i - 2].text != "std")
      continue;
    if (i + 1 >= t.size() || !is_punct(t[i + 1], "<")) continue;
    // First template argument: tokens until ',' or the closing '>' at
    // depth 1.
    int depth = 1;
    bool ptr = false;
    for (size_t j = i + 2; j < t.size() && depth > 0; ++j) {
      if (t[j].kind != Token::Kind::kPunct) continue;
      if (t[j].text == "<") ++depth;
      else if (t[j].text == ">") --depth;
      else if (t[j].text == ">>") depth -= 2;
      else if (t[j].text == "," && depth == 1) break;
      else if (t[j].text == "*" && depth == 1) ptr = true;
    }
    if (ptr)
      findings.push_back(
          {f.rel, t[i].line, "det-ptr-key",
           "std::" + t[i].text +
               " ordered by a pointer key; pointer order is allocation "
               "order and ASLR reshuffles it — key on a stable id"});
  }
}

/// Float-typed symbols declared in `f`: `double x`, `float* p`, `Nanos t`,
/// and separately the atomic<double> symbols (flagged on fetch_add).
struct FloatSymbols {
  std::set<std::string> plain;
  std::set<std::string> atomic;
};

FloatSymbols float_decls(const SourceFile& f) {
  FloatSymbols out;
  const std::vector<Token>& t = f.tokens;
  const auto name_after = [&](size_t i) -> std::string {
    size_t j = i + 1;
    while (j < t.size() &&
           (is_punct(t[j], "*") || is_punct(t[j], "&") ||
            is_punct(t[j], "&&") ||
            (t[j].kind == Token::Kind::kIdent && t[j].text == "const")))
      ++j;
    if (j < t.size() && t[j].kind == Token::Kind::kIdent &&
        (j + 1 >= t.size() || !is_punct(t[j + 1], "(")))
      return t[j].text;
    return "";
  };
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent) continue;
    if (any_of(t[i].text, {"double", "float", "Nanos"})) {
      // Skip `atomic<double>`'s inner `double` (handled below) and
      // `<double>` template args generally: preceded by '<'.
      if (i > 0 && (is_punct(t[i - 1], "<"))) continue;
      const std::string name = name_after(i);
      if (!name.empty()) out.plain.insert(name);
    }
    if (t[i].text == "atomic" && i + 3 < t.size() && is_punct(t[i + 1], "<") &&
        t[i + 2].kind == Token::Kind::kIdent &&
        any_of(t[i + 2].text, {"double", "float", "Nanos"})) {
      const size_t after = skip_template_args(t, i + 1);
      if (after < t.size() && t[after].kind == Token::Kind::kIdent)
        out.atomic.insert(t[after].text);
    }
  }
  return out;
}

/// Token-index ranges lexically inside `.run_epoch(...)` /
/// `->run_epoch(...)` call argument lists: the LaneExecutor's fan-out,
/// whose claim order varies run to run.
std::vector<std::pair<size_t, size_t>> parallel_spans(const SourceFile& f) {
  std::vector<std::pair<size_t, size_t>> spans;
  const std::vector<Token>& t = f.tokens;
  for (size_t i = 1; i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent || t[i].text != "run_epoch") continue;
    if (!is_punct(t[i - 1], ".") && !is_punct(t[i - 1], "->")) continue;
    if (i + 1 >= t.size() || !is_punct(t[i + 1], "(")) continue;
    int depth = 1;
    size_t j = i + 2;
    for (; j < t.size() && depth > 0; ++j) {
      if (is_punct(t[j], "(")) ++depth;
      else if (is_punct(t[j], ")")) --depth;
    }
    spans.emplace_back(i + 2, j);  // argument tokens, call tokens excluded
  }
  return spans;
}

void check_fp_accum(const SourceFile& f, std::vector<Finding>& findings) {
  const std::vector<std::pair<size_t, size_t>> spans = parallel_spans(f);
  if (spans.empty()) return;
  const FloatSymbols syms = float_decls(f);
  const std::vector<Token>& t = f.tokens;
  const auto in_span = [&](size_t i) {
    for (const auto& [b, e] : spans)
      if (i >= b && i < e) return true;
    return false;
  };
  for (size_t i = 1; i < t.size(); ++i) {
    if (!in_span(i)) continue;
    if ((is_punct(t[i], "+=") || is_punct(t[i], "-=")) &&
        t[i - 1].kind == Token::Kind::kIdent &&
        syms.plain.count(t[i - 1].text)) {
      findings.push_back(
          {f.rel, t[i].line, "det-fp-accum",
           "'" + t[i - 1].text + " " + t[i].text +
               " ...' inside a parallel region; FP addition is "
               "non-associative, so racy order changes the low bits — "
               "accumulate per-task and reduce in index order"});
    }
    if (t[i].kind == Token::Kind::kIdent && t[i].text == "fetch_add" &&
        i >= 2 && (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->")) &&
        t[i - 2].kind == Token::Kind::kIdent &&
        syms.atomic.count(t[i - 2].text)) {
      findings.push_back(
          {f.rel, t[i].line, "det-fp-accum",
           "fetch_add on atomic<double> '" + t[i - 2].text +
               "' inside a parallel region; atomic FP accumulation is "
               "order-sensitive — accumulate per-task and reduce in index "
               "order"});
    }
  }
}

}  // namespace

void run_determinism(const Project& project, std::vector<Finding>& findings) {
  // Ledger-feeding set: every src/ file whose transitive includes reach a
  // ledger-declaring header, those headers themselves, and every header
  // inside those closures (members declared there get iterated in the
  // TUs). Ledgers live in three headers: the metrics ledger
  // (platform/metrics.hpp), the cluster's migration/failover/health event
  // ledgers (platform/cluster.hpp, DESIGN.md §13), the QoS shed/SLO
  // vocabulary (platform/qos.hpp, DESIGN.md §14 — ShedCause-indexed
  // counters and the per-class attainment rollups), and the lane
  // executor (platform/concurrency.hpp, DESIGN.md §15 — everything it
  // fans out feeds a ledger from whichever worker claimed it) — rooting the
  // set at all four keeps every consumer covered even if its include
  // graph stops reaching the metrics header.
  const std::set<std::string> kLedgerHeaders = {
      "src/platform/metrics.hpp", "src/platform/cluster.hpp",
      "src/platform/qos.hpp", "src/platform/concurrency.hpp"};
  auto reaches_ledger = [&](const std::string& rel,
                            const std::set<std::string>& cl) {
    if (kLedgerHeaders.count(rel)) return true;
    for (const std::string& h : kLedgerHeaders)
      if (cl.count(h)) return true;
    return false;
  };
  std::set<std::string> ledger;
  std::map<std::string, std::set<std::string>> closures;
  for (const SourceFile& f : project.files) {
    if (!f.under("src/")) continue;
    std::set<std::string> cl = project.closure(f.rel);
    if (reaches_ledger(f.rel, cl)) {
      ledger.insert(f.rel);
      for (const std::string& h : cl)
        if (h.ends_with(".hpp")) ledger.insert(h);
    }
    closures[f.rel] = std::move(cl);
  }

  // Unordered-container symbol tables, per file.
  std::map<std::string, std::set<std::string>> decls;
  for (const SourceFile& f : project.files)
    if (f.under("src/")) decls[f.rel] = unordered_decls(f);

  for (const SourceFile& f : project.files) {
    if (ledger.count(f.rel)) {
      // Symbols visible at this file's iteration sites: its own
      // declarations plus everything declared in headers it includes.
      std::set<std::string> syms = decls[f.rel];
      for (const std::string& h : closures[f.rel]) {
        const auto it = decls.find(h);
        if (it != decls.end()) syms.insert(it->second.begin(),
                                           it->second.end());
      }
      if (!syms.empty()) flag_unordered_iteration(f, syms, findings);
    }
    if (!f.under("bench/") && !f.stem_is("src/util/rng"))
      check_wallclock(f, findings);
    if (f.under("src/")) {
      check_ptr_keys(f, findings);
      check_fp_accum(f, findings);
    }
  }
}

}  // namespace toss_lint
