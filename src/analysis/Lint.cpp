//===- analysis/Lint.cpp - Corpus diagnostics (slp-lint) ----------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "analysis/Lint.h"

#include "obs/Metrics.h"
#include "sl/Parser.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <vector>
#include <sstream>

using namespace slp;
using namespace slp::analysis;

const char *analysis::lintCodeName(LintCode C) {
  switch (C) {
  case LintCode::ParseError:
    return "SLP-E001";
  case LintCode::ExpectMismatch:
    return "SLP-E002";
  case LintCode::ContradictoryAntecedent:
    return "SLP-W001";
  case LintCode::DuplicateSpatialAtom:
    return "SLP-W002";
  case LintCode::TriviallyValid:
    return "SLP-W003";
  case LintCode::UnusedVariable:
    return "SLP-W004";
  case LintCode::IllFormedSigma:
    return "SLP-W005";
  }
  return "SLP-E000";
}

const char *analysis::lintSeverityName(LintSeverity S) {
  switch (S) {
  case LintSeverity::Error:
    return "error";
  case LintSeverity::Warning:
    return "warning";
  case LintSeverity::Note:
    return "note";
  }
  return "note";
}

std::string LintDiagnostic::render() const {
  std::ostringstream OS;
  OS << File << ':' << Line << ':' << Col << ": "
     << lintSeverityName(Severity) << ": " << Message << " ["
     << lintCodeName(Code) << ']';
  return OS.str();
}

size_t LintReport::count(LintSeverity S) const {
  return static_cast<size_t>(
      std::count_if(Diags.begin(), Diags.end(),
                    [S](const LintDiagnostic &D) { return D.Severity == S; }));
}

void LintReport::merge(LintReport Other) {
  Diags.insert(Diags.end(), std::make_move_iterator(Other.Diags.begin()),
               std::make_move_iterator(Other.Diags.end()));
  Queries += Other.Queries;
  Labeled += Other.Labeled;
  Definitive += Other.Definitive;
}

namespace {

bool isIdentChar(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
}

/// 1-based column of the first standalone occurrence of \p Token in
/// \p Line; 1 when not found.
unsigned tokenColumn(std::string_view Line, std::string_view Token) {
  if (Token.empty())
    return 1;
  size_t Pos = 0;
  while ((Pos = Line.find(Token, Pos)) != std::string_view::npos) {
    bool LeftOk = Pos == 0 || !isIdentChar(Line[Pos - 1]);
    size_t End = Pos + Token.size();
    bool RightOk = End >= Line.size() || !isIdentChar(Line[End]);
    if (LeftOk && RightOk)
      return static_cast<unsigned>(Pos) + 1;
    ++Pos;
  }
  return 1;
}

/// The W-rules report at Warning severity by default, Note for
/// machine-generated corpora.
LintSeverity wSeverity(const LintOptions &Opts) {
  return Opts.Generated ? LintSeverity::Note : LintSeverity::Warning;
}

void emit(LintReport &Out, const std::string &File, unsigned Line,
          unsigned Col, LintSeverity Sev, LintCode Code,
          std::string Message) {
  Out.Diags.push_back({File, Line, Col, Sev, Code, std::move(Message)});
}

/// Scans a comment body for an `# expect: valid|invalid` label.
ExpectedVerdict labelIn(std::string_view Text) {
  if (Text.find("expect: valid") != std::string_view::npos)
    return ExpectedVerdict::Valid;
  if (Text.find("expect: invalid") != std::string_view::npos)
    return ExpectedVerdict::Invalid;
  return ExpectedVerdict::None;
}

void checkDuplicateAtoms(const std::string &File, unsigned Line,
                         std::string_view LineText, const TermTable &Terms,
                         const sl::SpatialFormula &Sigma, const char *Side,
                         const LintOptions &Opts, LintReport &Out) {
  for (size_t I = 0; I != Sigma.size(); ++I)
    for (size_t J = I + 1; J != Sigma.size(); ++J)
      if (Sigma[I] == Sigma[J]) {
        std::string Atom = str(Terms, Sigma[I]);
        emit(Out, File, Line,
             tokenColumn(LineText, Terms.str(Sigma[I].Addr)),
             wSeverity(Opts), LintCode::DuplicateSpatialAtom,
             "duplicate spatial atom " + Atom + " in the " + Side);
        return; // One finding per side is enough signal.
      }
}

void checkIllFormedSigma(const std::string &File, unsigned Line,
                         std::string_view LineText, const TermTable &Terms,
                         const sl::SpatialFormula &Sigma, const char *Side,
                         const LintOptions &Opts, LintReport &Out) {
  for (size_t I = 0; I != Sigma.size(); ++I) {
    if (Sigma[I].Addr.isNil()) {
      emit(Out, File, Line, tokenColumn(LineText, "nil"), wSeverity(Opts),
           LintCode::IllFormedSigma,
           "ill-formed spatial part: nil-addressed atom " +
               str(Terms, Sigma[I]) + " in the " + Side);
      return;
    }
    for (size_t J = I + 1; J != Sigma.size(); ++J)
      if (Sigma[I].Addr == Sigma[J].Addr && !(Sigma[I] == Sigma[J])) {
        emit(Out, File, Line,
             tokenColumn(LineText, Terms.str(Sigma[I].Addr)),
             wSeverity(Opts), LintCode::IllFormedSigma,
             "ill-formed spatial part: " + str(Terms, Sigma[I]) + " and " +
                 str(Terms, Sigma[J]) + " share an address in the " + Side);
        return;
      }
  }
}

void checkUnusedVariables(const std::string &File, unsigned Line,
                          std::string_view LineText, const TermTable &Terms,
                          const sl::Entailment &E, const LintOptions &Opts,
                          LintReport &Out) {
  // Indexed by symbol id, so the warnings follow interning order.
  std::vector<unsigned> Occurrences;
  auto Occur = [&](Symbol S) {
    if (S.id() >= Occurrences.size())
      Occurrences.resize(S.id() + 1, 0);
    ++Occurrences[S.id()];
  };
  auto Count = [&](const sl::Assertion &A) {
    for (const sl::PureAtom &P : A.Pure) {
      Occur(P.Lhs);
      Occur(P.Rhs);
    }
    for (const sl::HeapAtom &H : A.Spatial) {
      Occur(H.Addr);
      Occur(H.Val);
    }
  };
  Count(E.Lhs);
  Count(E.Rhs);
  // Symbol 0 is nil, which is never unused.
  for (uint32_t Id = 1; Id < Occurrences.size(); ++Id) {
    if (Occurrences[Id] != 1)
      continue;
    std::string Name = Terms.str(Symbol(Id));
    emit(Out, File, Line, tokenColumn(LineText, Name), wSeverity(Opts),
         LintCode::UnusedVariable,
         "variable '" + Name + "' occurs only once (constrains nothing)");
  }
}

} // namespace

void analysis::lintQuery(const std::string &File, unsigned Line,
                         std::string_view LineText, TermTable &Terms,
                         const sl::Entailment &E, ExpectedVerdict Label,
                         const LintOptions &Opts, LintReport &Out) {
  ++Out.Queries;
  if (Label == ExpectedVerdict::None)
    Label = Opts.ExpectAll;
  else
    ++Out.Labeled;

  AnalysisResult A = analyze(Terms, E);
  if (A.definitive())
    ++Out.Definitive;

  // Label check: the analyzer is sound and answers only Valid, so an
  // `invalid` label on a query it proves is a corpus bug, not an
  // analyzer finding.
  if (Label == ExpectedVerdict::Invalid && A.definitive())
    emit(Out, File, Line, 1, LintSeverity::Error, LintCode::ExpectMismatch,
         "label says 'invalid' but the query is definitively valid (" +
             A.Detail + ")");

  // Labeled lines are test vectors: the intent is the label, so the
  // advisory rules below are suppressed for them.
  if (Label != ExpectedVerdict::None)
    return;

  if (A.V == core::Verdict::Valid &&
      (A.R == Reason::PureContradiction || A.R == Reason::WfContradiction))
    emit(Out, File, Line, 1, wSeverity(Opts),
         LintCode::ContradictoryAntecedent,
         "antecedent is unsatisfiable, the query is vacuously valid (" +
             A.Detail + ")");
  if (A.V == core::Verdict::Valid && A.R == Reason::SyntacticMatch)
    emit(Out, File, Line, 1, wSeverity(Opts), LintCode::TriviallyValid,
         "trivially valid: " + A.Detail);

  checkDuplicateAtoms(File, Line, LineText, Terms, E.Lhs.Spatial,
                      "antecedent", Opts, Out);
  checkDuplicateAtoms(File, Line, LineText, Terms, E.Rhs.Spatial,
                      "consequent", Opts, Out);
  checkIllFormedSigma(File, Line, LineText, Terms, E.Lhs.Spatial,
                      "antecedent", Opts, Out);
  checkIllFormedSigma(File, Line, LineText, Terms, E.Rhs.Spatial,
                      "consequent", Opts, Out);
  checkUnusedVariables(File, Line, LineText, Terms, E, Opts, Out);
}

LintReport analysis::lintCorpus(const std::string &FileName,
                                std::string_view Text,
                                const LintOptions &Opts) {
  LintReport Out;
  size_t Pos = 0;
  unsigned LineNo = 0;
  ExpectedVerdict Pending = ExpectedVerdict::None;

  while (Pos <= Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string_view::npos)
      End = Text.size();
    std::string_view Line = Text.substr(Pos, End - Pos);
    bool LastLine = End == Text.size();
    Pos = End + 1;
    ++LineNo;

    size_t NonWs = Line.find_first_not_of(" \t\r");
    if (NonWs == std::string_view::npos) {
      if (LastLine)
        break;
      continue;
    }
    std::string_view Body = Line.substr(NonWs);
    if (Body[0] == '#' || Body.rfind("//", 0) == 0) {
      // A label comment applies to the next query line.
      if (ExpectedVerdict L = labelIn(Body); L != ExpectedVerdict::None)
        Pending = L;
      if (LastLine)
        break;
      continue;
    }

    // A trailing same-line comment can also carry the label.
    ExpectedVerdict Label = Pending;
    Pending = ExpectedVerdict::None;
    size_t Comment = std::min(Line.find('#'), Line.find("//"));
    if (Comment != std::string_view::npos)
      if (ExpectedVerdict L = labelIn(Line.substr(Comment));
          L != ExpectedVerdict::None)
        Label = L;

    SymbolTable Syms;
    TermTable Terms(Syms);
    sl::ParseResult P = sl::parseEntailment(Terms, Line);
    if (!P.ok()) {
      ++Out.Queries;
      emit(Out, FileName, LineNo, P.Error->Column, LintSeverity::Error,
           LintCode::ParseError, "syntax error: " + P.Error->Message);
    } else {
      lintQuery(FileName, LineNo, Line, Terms, *P.Value, Label, Opts, Out);
    }
    if (LastLine)
      break;
  }
  return Out;
}

std::string analysis::reportJson(const LintReport &R) {
  auto Escaped = [](std::string_view Text) {
    std::string Out;
    obs::appendJsonEscaped(Out, Text);
    return Out;
  };
  std::ostringstream OS;
  OS << "{\n  \"tool\": \"slp-lint\",\n  \"version\": 1,\n"
     << "  \"queries\": " << R.Queries << ",\n"
     << "  \"labeled\": " << R.Labeled << ",\n"
     << "  \"definitive\": " << R.Definitive << ",\n"
     << "  \"errors\": " << R.errors() << ",\n"
     << "  \"warnings\": " << R.warnings() << ",\n"
     << "  \"notes\": " << R.count(LintSeverity::Note) << ",\n"
     << "  \"diagnostics\": [";
  for (size_t I = 0; I != R.Diags.size(); ++I) {
    const LintDiagnostic &D = R.Diags[I];
    OS << (I ? ",\n    {" : "\n    {") << "\"file\": \"" << Escaped(D.File)
       << "\", \"line\": " << D.Line << ", \"col\": " << D.Col
       << ", \"severity\": \"" << lintSeverityName(D.Severity)
       << "\", \"code\": \"" << lintCodeName(D.Code) << "\", \"message\": \""
       << Escaped(D.Message) << "\"}";
  }
  OS << (R.Diags.empty() ? "]\n}\n" : "\n  ]\n}\n");
  return OS.str();
}
