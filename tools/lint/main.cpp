// toss_lint driver: load the project, build the include graph, run the
// passes, apply allow() waivers, print text or JSON.
//
//   toss_lint [--format=text|json] <project-root>
//
// Scans src/, tests/, bench/, examples/, and tools/ (skipping
// tests/lint_fixtures, which holds deliberately-broken inputs). Text
// output is one `file:line rule message` per finding, exactly what the
// original one-pass linter printed; --format=json adds the waived
// findings and the waiver count that CI diffs against
// tools/lint/waiver_budget.txt. Exit codes: 0 clean, 1 findings,
// 2 usage or I/O error.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "lint.hpp"

namespace fs = std::filesystem;

namespace toss_lint {
namespace {

bool finding_less(const Finding& a, const Finding& b) {
  if (a.file != b.file) return a.file < b.file;
  if (a.line != b.line) return a.line < b.line;
  if (a.rule != b.rule) return a.rule < b.rule;
  return a.message < b.message;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void print_json(const std::vector<Finding>& findings,
                const std::vector<Finding>& waived, size_t files_scanned) {
  std::printf("{\n  \"schema\": 1,\n  \"files_scanned\": %zu,\n",
              files_scanned);
  const auto print_list = [](const char* key,
                             const std::vector<Finding>& list,
                             bool with_message) {
    std::printf("  \"%s\": [", key);
    for (size_t i = 0; i < list.size(); ++i) {
      const Finding& f = list[i];
      std::printf("%s\n    {\"file\": \"%s\", \"line\": %zu, \"rule\": "
                  "\"%s\"",
                  i ? "," : "", json_escape(f.file).c_str(), f.line,
                  json_escape(f.rule).c_str());
      if (with_message)
        std::printf(", \"message\": \"%s\"", json_escape(f.message).c_str());
      std::printf("}");
    }
    std::printf("%s],\n", list.empty() ? "" : "\n  ");
  };
  print_list("findings", findings, true);
  print_list("waived", waived, false);
  std::printf("  \"waivers_used\": %zu\n}\n", waived.size());
}

int scan_project(const fs::path& root, const std::string& format) {
  Project project;
  std::vector<Finding> findings;

  std::vector<std::pair<std::string, fs::path>> inputs;
  for (const char* sub : {"src", "tests", "bench", "examples", "tools"}) {
    const fs::path dir = root / sub;
    if (!fs::exists(dir)) continue;
    for (fs::recursive_directory_iterator it(dir), end; it != end; ++it) {
      if (it->is_directory() && it->path().filename() == "lint_fixtures") {
        it.disable_recursion_pending();
        continue;
      }
      if (!it->is_regular_file()) continue;
      const std::string ext = it->path().extension().string();
      if (ext != ".cpp" && ext != ".hpp") continue;
      inputs.emplace_back(fs::relative(it->path(), root).generic_string(),
                          it->path());
    }
  }
  std::sort(inputs.begin(), inputs.end());

  project.files.reserve(inputs.size());
  for (const auto& [rel, path] : inputs) {
    SourceFile file;
    if (!load_source(path, rel, file, findings)) {
      std::fprintf(stderr, "toss_lint: cannot read %s\n", rel.c_str());
      return 2;
    }
    project.index[rel] = project.files.size();
    project.files.push_back(std::move(file));
  }
  build_include_graph(project);

  for (const SourceFile& f : project.files) run_line_rules(f, findings);
  run_layering(project, findings);
  run_determinism(project, findings);

  std::vector<Finding> active;
  std::vector<Finding> waived;
  for (Finding& finding : findings) {
    const SourceFile* f = project.find(finding.file);
    bool suppressed = false;
    if (f && finding.line >= 1 && finding.line <= f->allow.size())
      for (const std::string& rule : f->allow[finding.line - 1])
        if (rule == finding.rule) suppressed = true;
    (suppressed ? waived : active).push_back(std::move(finding));
  }
  std::sort(active.begin(), active.end(), finding_less);
  std::sort(waived.begin(), waived.end(), finding_less);

  if (format == "json") {
    print_json(active, waived, project.files.size());
    return active.empty() ? 0 : 1;
  }
  for (const Finding& f : active)
    std::printf("%s:%zu %s %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                f.message.c_str());
  if (active.empty()) {
    std::printf("toss_lint: %zu files clean\n", project.files.size());
    return 0;
  }
  std::fprintf(stderr, "toss_lint: %zu finding(s) in %zu files\n",
               active.size(), project.files.size());
  return 1;
}

}  // namespace
}  // namespace toss_lint

int main(int argc, char** argv) {
  std::string format = "text";
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "text" && format != "json") {
        std::fprintf(stderr, "toss_lint: unknown format '%s'\n",
                     format.c_str());
        return 2;
      }
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr,
                   "usage: toss_lint [--format=text|json] <project-root>\n");
      return 2;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 1) {
    std::fprintf(stderr,
                 "usage: toss_lint [--format=text|json] <project-root>\n");
    return 2;
  }
  const fs::path root = positional[0];
  if (!fs::is_directory(root)) {
    std::fprintf(stderr, "toss_lint: %s is not a directory\n",
                 positional[0].c_str());
    return 2;
  }
  return toss_lint::scan_project(root, format);
}
