// Shared C++ tokenizer for toss_lint.
//
// One place handles what every rule used to re-implement per line:
// comments (// and /* */, including a line comment continued by a trailing
// backslash), string and character literals (escapes, prefix forms like
// u8"...", backslash-newline continuation), and raw string literals
// R"delim(...)delim" spanning any number of lines. No trigraph or digraph
// interpretation is performed — `<:` is just '<' ':' — matching how the
// project's compilers are invoked (C++17+ removed trigraphs; digraphs are
// not used in this codebase).
//
// Output is two synchronized views of the same file:
//   - `code`: the raw lines with comment bodies and literal contents
//     blanked to spaces (quotes kept), layout-preserving, so line/column
//     positions in findings stay honest. Line-oriented rules match here.
//   - `tokens`: the token stream (identifiers, numbers, literals, puncts)
//     with 1-based line and 0-based column, for the passes that need to see
//     across lines: the determinism auditor's declaration tables and the
//     layering pass's alias scan.
#pragma once

#include <string>
#include <vector>

namespace toss_lint {

struct Token {
  enum class Kind { kIdent, kNumber, kString, kChar, kPunct };
  Kind kind = Kind::kPunct;
  /// Identifier/number/punct spelling; empty for string and char literals
  /// (their contents are deliberately stripped).
  std::string text;
  size_t line = 0;  ///< 1-based
  size_t col = 0;   ///< 0-based byte offset in the raw line
};

struct LexOutput {
  std::vector<std::string> code;  ///< stripped lines, layout preserving
  std::vector<Token> tokens;
};

/// Tokenize one file given as raw lines (no trailing newlines).
LexOutput lex(const std::vector<std::string>& raw);

}  // namespace toss_lint
