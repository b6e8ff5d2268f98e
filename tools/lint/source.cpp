// Source loading, allow() trailer parsing, and the shared text helpers.
#include <cctype>
#include <fstream>

#include "lint.hpp"

namespace toss_lint {

namespace {

const char* const kRuleNames[] = {
    // line rules
    "deep-include", "platform-throw", "raw-assert", "nondeterminism",
    "thread-spawn", "pragma-once", "swallowed-error", "unbounded-wait",
    // layering pass (absorbed host-internal and tier-alias)
    "layering", "include-cycle", "host-internal", "tier-alias",
    // determinism auditor
    "det-unordered-iter", "det-wallclock", "det-ptr-key", "det-fp-accum",
};

/// Rules suppressed on `line` via a toss-lint allow(...) trailer, e.g.
/// allow(raw-assert) or a comma-separated list.
std::vector<std::string> suppressed_rules(const std::string& line,
                                          const std::string& rel,
                                          size_t line_no,
                                          std::vector<Finding>& findings) {
  std::vector<std::string> out;
  const size_t tag = line.find("toss-lint:");
  if (tag == std::string::npos) return out;
  const size_t open = line.find("allow(", tag);
  if (open == std::string::npos) return out;
  const size_t close = line.find(')', open);
  if (close == std::string::npos) return out;
  std::string name;
  for (size_t i = open + 6; i <= close; ++i) {
    const char c = line[i];
    if (c == ',' || c == ')') {
      if (!name.empty() && !known_rule(name))
        findings.push_back({rel, line_no, "lint-usage",
                            "unknown rule '" + name + "' in allow() trailer"});
      if (!name.empty()) out.push_back(name);
      name.clear();
    } else if (c != ' ') {
      name.push_back(c);
    }
  }
  return out;
}

}  // namespace

bool known_rule(const std::string& name) {
  for (const char* r : kRuleNames)
    if (name == r) return true;
  return false;
}

bool is_word_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool word_at(const std::string& text, size_t pos, const std::string& word) {
  if (text.compare(pos, word.size(), word) != 0) return false;
  if (pos > 0 && is_word_char(text[pos - 1])) return false;
  const size_t end = pos + word.size();
  if (end < text.size() && is_word_char(text[end])) return false;
  return true;
}

bool contains_word(const std::string& text, const std::string& word) {
  for (size_t pos = text.find(word); pos != std::string::npos;
       pos = text.find(word, pos + 1))
    if (word_at(text, pos, word)) return true;
  return false;
}

bool contains_qualified(const std::string& text, const std::string& qualifier,
                        const std::string& word) {
  for (size_t pos = text.find(word); pos != std::string::npos;
       pos = text.find(word, pos + 1)) {
    if (!word_at(text, pos, word)) continue;
    if (pos >= qualifier.size() &&
        text.compare(pos - qualifier.size(), qualifier.size(), qualifier) == 0)
      return true;
  }
  return false;
}

bool contains_call(const std::string& text, const std::string& word) {
  for (size_t pos = text.find(word); pos != std::string::npos;
       pos = text.find(word, pos + 1)) {
    if (!word_at(text, pos, word)) continue;
    size_t after = pos + word.size();
    while (after < text.size() && text[after] == ' ') ++after;
    if (after < text.size() && text[after] == '(') return true;
  }
  return false;
}

bool load_source(const std::filesystem::path& path, const std::string& rel,
                 SourceFile& out, std::vector<Finding>& findings) {
  std::ifstream in(path);
  if (!in) return false;
  out.rel = rel;
  out.raw.clear();
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    out.raw.push_back(line);
  }

  LexOutput lexed = lex(out.raw);
  out.code = std::move(lexed.code);
  out.tokens = std::move(lexed.tokens);

  // Parse every allow() trailer once up front, so unknown rule names are
  // flagged even on lines that trip nothing.
  out.allow.assign(out.raw.size(), {});
  for (size_t i = 0; i < out.raw.size(); ++i)
    out.allow[i] = suppressed_rules(out.raw[i], rel, i + 1, findings);

  // Collect quoted #include targets. The stripper blanked the literal's
  // contents, so the directive is found in `code` and the target read from
  // `raw`.
  out.includes.clear();
  for (size_t i = 0; i < out.code.size(); ++i) {
    const size_t pos = out.code[i].find("#include \"");
    if (pos == std::string::npos) continue;
    const size_t begin = pos + 10;
    const size_t end = out.raw[i].find('"', begin);
    if (end == std::string::npos) continue;
    out.includes.push_back(
        {i + 1, out.raw[i].substr(begin, end - begin), ""});
  }
  return true;
}

}  // namespace toss_lint
