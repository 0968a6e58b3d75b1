//===- tools/slp-lint.cpp - Corpus linter -------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `slp-lint` command line tool: static diagnostics over `.slp`
/// corpora and the symexec verification conditions, powered by the
/// polynomial analyzer (never runs saturation).
///
///   slp-lint [options] [file...]
///     --json[=FILE]   emit the report as JSON (stdout or FILE) in
///                     addition to the text diagnostics on stderr
///     --Werror        exit nonzero on warnings, not just errors
///     --generated     demote W-rules to notes (machine-generated
///                     corpus: contradictions and trivialities are
///                     expected there, only structural integrity gates)
///     --expect=valid  treat every unlabeled query as labeled
///                     `# expect: valid`, i.e. intentional: the
///                     advisory W-rules are suppressed (all-valid
///                     corpora, e.g. VCs)
///     --symexec       lint the bundled symexec corpus VCs instead of
///                     (or in addition to) input files
///     --quiet         suppress the summary line
///
/// Diagnostics render as `file:line:col: severity: message [SLP-Xnnn]`.
/// Exit status: 0 clean (or notes only), 1 findings at a failing
/// severity (errors; warnings too under --Werror), 2 usage/IO error.
/// Lines labeled `# expect: valid|invalid` are test vectors: the
/// advisory W-rules are suppressed for them, and an `invalid` label on
/// a query the analyzer proves Valid is an error (SLP-E002). The
/// analyzer never answers Invalid, so it cannot catch a `valid` label
/// on an invalid query; the full prover checks those.
///
//===----------------------------------------------------------------------===//

#include "analysis/Lint.h"
#include "engine/VcTasks.h"
#include "sl/Parser.h"

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace slp;

namespace {

int usage() {
  std::cerr << "usage: slp-lint [--json[=FILE]] [--Werror] [--generated] "
               "[--expect=valid] [--symexec] [--quiet] [file...]\n";
  return 2;
}

/// Lints the bundled symexec corpus: every VC of every program,
/// anchored as "symexec:<program>" with the VC index as the line.
analysis::LintReport lintSymexec(const analysis::LintOptions &Opts) {
  analysis::LintReport Out;
  engine::VcTaskSet Vcs = engine::symexecVcTasks();
  if (!Vcs.ok()) {
    Out.Diags.push_back({"symexec", 0, 1, analysis::LintSeverity::Error,
                         analysis::LintCode::ParseError,
                         "symbolic execution failed: " + *Vcs.Error});
    return Out;
  }
  std::vector<unsigned> NextLine(Vcs.Programs.size(), 1);
  for (const core::ProofTask &T : Vcs.Tasks) {
    std::string Anchor = "symexec:" + Vcs.Programs[T.Group];
    unsigned Line = NextLine[T.Group]++;
    SymbolTable Syms;
    TermTable Terms(Syms);
    sl::ParseResult P = sl::parseEntailment(Terms, T.Text);
    if (!P.ok()) {
      ++Out.Queries;
      Out.Diags.push_back({Anchor, Line, P.Error->Column,
                           analysis::LintSeverity::Error,
                           analysis::LintCode::ParseError,
                           "syntax error in VC '" + T.Name +
                               "': " + P.Error->Message});
      continue;
    }
    analysis::lintQuery(Anchor, Line, T.Text, Terms, *P.Value,
                        analysis::ExpectedVerdict::None, Opts, Out);
  }
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  analysis::LintOptions Opts;
  bool Werror = false, Json = false, Symexec = false, Quiet = false;
  std::string JsonFile;
  std::vector<std::string> Files;

  for (int I = 1; I != argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--json") {
      Json = true;
    } else if (Arg.rfind("--json=", 0) == 0) {
      Json = true;
      JsonFile = Arg.substr(7);
      if (JsonFile.empty())
        return usage();
    } else if (Arg == "--Werror") {
      Werror = true;
    } else if (Arg == "--generated") {
      Opts.Generated = true;
    } else if (Arg == "--expect=valid") {
      Opts.ExpectAll = analysis::ExpectedVerdict::Valid;
    } else if (Arg == "--symexec") {
      Symexec = true;
    } else if (Arg == "--quiet") {
      Quiet = true;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::cerr << "slp-lint: unknown option '" << Arg << "'\n";
      return usage();
    } else {
      Files.push_back(Arg);
    }
  }
  if (Files.empty() && !Symexec) {
    std::cerr << "slp-lint: no input (give files or --symexec)\n";
    return usage();
  }

  analysis::LintReport Report;
  for (const std::string &File : Files) {
    std::ifstream In(File);
    if (!In) {
      std::cerr << "slp-lint: cannot open " << File << "\n";
      return 2;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    Report.merge(analysis::lintCorpus(File, SS.str(), Opts));
  }
  if (Symexec)
    Report.merge(lintSymexec(Opts));

  for (const analysis::LintDiagnostic &D : Report.Diags)
    std::cerr << D.render() << "\n";

  if (Json) {
    std::string Payload = analysis::reportJson(Report);
    if (JsonFile.empty()) {
      std::cout << Payload;
    } else {
      std::ofstream Out(JsonFile);
      if (!Out) {
        std::cerr << "slp-lint: cannot write " << JsonFile << "\n";
        return 2;
      }
      Out << Payload;
    }
  }

  bool Fail = Report.errors() > 0 || (Werror && Report.warnings() > 0);
  if (!Quiet)
    std::cerr << "slp-lint: " << Report.Queries << " queries ("
              << Report.Labeled << " labeled, " << Report.Definitive
              << " decided), " << Report.errors() << " errors, "
              << Report.warnings() << " warnings, "
              << Report.count(analysis::LintSeverity::Note) << " notes"
              << (Fail ? " -- FAIL" : "") << "\n";
  return Fail ? 1 : 0;
}
