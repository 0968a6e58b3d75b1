//===- analysis/Lint.h - Corpus diagnostics (slp-lint) ----------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The rule engine behind the `slp-lint` tool: per-line, per-column
/// diagnostics over `.slp` corpora and rendered symexec verification
/// conditions, powered by the static analyzer (analysis::analyze).
///
/// Codes (documented in docs/analysis.md):
///
///   SLP-E001  parse error (error)
///   SLP-E002  `# expect: invalid` label on a query the analyzer proves
///             Valid (error) — the analyzer is sound, so this is a
///             corpus bug
///   SLP-W001  contradictory antecedent: the query is vacuously valid
///   SLP-W002  duplicate spatial atom within one side's Σ
///   SLP-W003  trivially valid query (discharged by the syntactic
///             matcher)
///   SLP-W004  unused variable (occurs exactly once in the query)
///   SLP-W005  ill-formed Σ: nil-addressed atom or syntactically
///             aliased addresses
///
/// A line labeled `# expect: valid|invalid` (preceding comment line or
/// trailing same-line comment) is a test vector: its intent is the
/// label, so W001-W005 are suppressed for it and only an `invalid`
/// label is checked (E002; the analyzer never answers Invalid, so a
/// `valid` label has nothing to contradict). With
/// LintOptions::Generated the W-rules are demoted to notes —
/// machine-generated corpora legitimately contain contradictions and
/// trivialities, and only structural integrity (parse errors, label
/// checks) should gate them.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_ANALYSIS_LINT_H
#define SLP_ANALYSIS_LINT_H

#include "analysis/StaticAnalyzer.h"

#include <string>
#include <string_view>
#include <vector>

namespace slp {
namespace analysis {

enum class LintCode : uint8_t {
  ParseError,              ///< SLP-E001
  ExpectMismatch,          ///< SLP-E002
  ContradictoryAntecedent, ///< SLP-W001
  DuplicateSpatialAtom,    ///< SLP-W002
  TriviallyValid,          ///< SLP-W003
  UnusedVariable,          ///< SLP-W004
  IllFormedSigma,          ///< SLP-W005
};

enum class LintSeverity : uint8_t { Error, Warning, Note };

/// Stable code string, e.g. "SLP-W001".
const char *lintCodeName(LintCode C);
const char *lintSeverityName(LintSeverity S);

/// One finding, anchored to file:line:col (1-based; col 1 when no
/// tighter anchor exists).
struct LintDiagnostic {
  std::string File;
  unsigned Line = 0;
  unsigned Col = 1;
  LintSeverity Severity = LintSeverity::Warning;
  LintCode Code = LintCode::ParseError;
  std::string Message;

  /// "file:line:col: severity: message [SLP-Wnnn]".
  std::string render() const;
};

/// What the corpus (or the caller) claims about a query's verdict.
enum class ExpectedVerdict : uint8_t { None, Valid, Invalid };

struct LintOptions {
  /// Demote W001-W005 to notes (machine-generated corpus).
  bool Generated = false;
  /// Treat every query as carrying this label (e.g. a VC corpus that
  /// is meant to be all-valid, which marks its queries intentional)
  /// unless the line carries its own.
  ExpectedVerdict ExpectAll = ExpectedVerdict::None;
};

/// Aggregate result of one lint run.
struct LintReport {
  std::vector<LintDiagnostic> Diags;
  size_t Queries = 0; ///< Query lines linted (comments/blanks excluded).
  size_t Labeled = 0; ///< Queries carrying an `# expect:` label.
  /// Queries the analyzer proved Valid (label-checkable).
  size_t Definitive = 0;

  size_t count(LintSeverity S) const;
  size_t errors() const { return count(LintSeverity::Error); }
  size_t warnings() const { return count(LintSeverity::Warning); }

  /// Appends another report's findings and counters.
  void merge(LintReport Other);
};

/// Lints a whole `.slp` corpus. \p FileName is used only for
/// diagnostic anchors.
LintReport lintCorpus(const std::string &FileName, std::string_view Text,
                      const LintOptions &Opts = {});

/// Lints one already-parsed query (used for symexec VCs, where the
/// anchor is a program name and a VC index rather than a file line).
void lintQuery(const std::string &File, unsigned Line,
               std::string_view LineText, TermTable &Terms,
               const sl::Entailment &E, ExpectedVerdict Label,
               const LintOptions &Opts, LintReport &Out);

/// Renders the full report as one JSON object (schema in
/// docs/analysis.md): tool/version header, per-severity totals, and a
/// "diagnostics" array.
std::string reportJson(const LintReport &R);

} // namespace analysis
} // namespace slp

#endif // SLP_ANALYSIS_LINT_H
