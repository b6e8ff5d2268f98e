// toss_lint core types: findings, the rule registry, loaded source files,
// and the project (file set + include graph) the multi-pass analyzer runs
// over. DESIGN.md §12 documents the pass pipeline; tools/lint/main.cpp is
// the driver.
#pragma once

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lexer.hpp"

namespace toss_lint {

struct Finding {
  std::string file;  ///< path relative to the project root
  size_t line = 0;
  std::string rule;
  std::string message;
};

/// Every rule any pass can emit. An allow() trailer naming anything else is
/// itself a finding (`lint-usage`), so a typo'd waiver cannot silently
/// disable nothing while looking load-bearing.
bool known_rule(const std::string& name);

/// One quoted #include directive: (1-based line, target as written,
/// project-relative resolved path or "" when the target is not a project
/// file).
struct IncludeEdge {
  size_t line = 0;
  std::string target;
  std::string resolved;
};

/// One scanned source file: raw lines for suppression trailers and include
/// targets, stripped lines + token stream (tools/lint/lexer.hpp) for rule
/// matching, and the per-line allow() waivers parsed once up front.
struct SourceFile {
  std::string rel;  ///< project-relative path, '/'-separated
  std::vector<std::string> raw;
  std::vector<std::string> code;
  std::vector<Token> tokens;
  std::vector<IncludeEdge> includes;
  /// Rules waived per line via a toss-lint allow(...) trailer comment.
  std::vector<std::vector<std::string>> allow;

  bool is_header() const { return rel.ends_with(".hpp"); }
  bool under(const std::string& prefix) const {
    return rel.rfind(prefix, 0) == 0;
  }
  bool stem_is(const std::string& stem) const {
    return rel == stem + ".hpp" || rel == stem + ".cpp";
  }
};

/// The scanned tree plus its resolved include graph.
struct Project {
  std::vector<SourceFile> files;         ///< sorted by rel
  std::map<std::string, size_t> index;   ///< rel -> files position

  const SourceFile* find(const std::string& rel) const {
    const auto it = index.find(rel);
    return it == index.end() ? nullptr : &files[it->second];
  }
  /// Transitive project includes of `rel` (excludes `rel` itself unless it
  /// participates in a cycle).
  std::set<std::string> closure(const std::string& rel) const;
};

// --- text helpers shared by the line-oriented rules ------------------------

bool is_word_char(char c);
/// True when `text[pos]` starts the whole word `word` (no word char on
/// either side).
bool word_at(const std::string& text, size_t pos, const std::string& word);
bool contains_word(const std::string& text, const std::string& word);
/// The whole word `word` immediately preceded by the text `qualifier`.
bool contains_qualified(const std::string& text, const std::string& qualifier,
                        const std::string& word);
/// `word` used as a call: the word followed (after spaces) by '('.
bool contains_call(const std::string& text, const std::string& word);

// --- loading and graph construction ----------------------------------------

/// Read + lex one file. Unknown rule names in allow() trailers are reported
/// into `findings` as `lint-usage`. Returns false on I/O failure.
bool load_source(const std::filesystem::path& path, const std::string& rel,
                 SourceFile& out, std::vector<Finding>& findings);

/// Resolve every file's quoted includes against the project file set
/// (relative to the including file's directory, then to src/, then to the
/// project root) and fill IncludeEdge::resolved.
void build_include_graph(Project& project);

/// Cycle detection over the resolved include graph. Each cycle is reported
/// once, at the back edge that closes it (deterministic: files and edges
/// are visited in sorted order).
void find_include_cycles(const Project& project,
                         std::vector<Finding>& findings);

// --- analysis passes -------------------------------------------------------

/// The single-file line rules (deep-include, platform-throw, raw-assert,
/// nondeterminism, thread-spawn, pragma-once, swallowed-error,
/// unbounded-wait).
void run_line_rules(const SourceFile& f, std::vector<Finding>& findings);

/// Declarative layering over the include graph (layering, include-cycle)
/// plus the API-surface checks it absorbed (host-internal, tier-alias).
void run_layering(const Project& project, std::vector<Finding>& findings);

/// Determinism auditor (det-unordered-iter, det-wallclock, det-ptr-key,
/// det-fp-accum).
void run_determinism(const Project& project, std::vector<Finding>& findings);

}  // namespace toss_lint
