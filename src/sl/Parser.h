//===- sl/Parser.h - Concrete syntax for entailments ------------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small concrete syntax for entailment problems, one per line:
///
///   x != y & lseg(x, y) * next(y, z) |- lseg(x, z)
///
/// Pure atoms are `a = b` / `a != b`; spatial atoms are `next(a, b)`
/// (sugar: `a -> b`), `lseg(a, b)`, and `emp`; atoms are joined with
/// `&` or `*` interchangeably (the AST keeps pure and spatial parts
/// separate); `true` denotes an empty assertion and `false` on the
/// right-hand side denotes the unprovable assertion ⊥ (encoded as
/// `nil != nil & emp`). Comments run from `#` or `//` to end of line.
/// Errors are reported as values; the parser never throws.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_SL_PARSER_H
#define SLP_SL_PARSER_H

#include "sl/Formula.h"

#include <optional>
#include <string>
#include <vector>

namespace slp {
namespace sl {

/// A parse diagnostic with 1-based position info.
struct ParseError {
  std::string Message;
  unsigned Line = 0;
  unsigned Column = 0;

  std::string render() const;
};

/// Result of parsing one entailment.
struct ParseResult {
  std::optional<Entailment> Value;
  std::optional<ParseError> Error;

  bool ok() const { return Value.has_value(); }
};

/// Parses a single entailment from \p Input. Constants are interned
/// into \p Terms.
ParseResult parseEntailment(TermTable &Terms, std::string_view Input);

} // namespace sl
} // namespace slp

#endif // SLP_SL_PARSER_H
