//===- tools/slp.cpp - Command line entailment checker ------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `slp` command line tool: checks entailments (one per line) from
/// a file or stdin.
///
///   slp [options] [file]
///     --proof       print the refutation for valid entailments
///     --model       print the countermodel for invalid entailments
///     --check-proof audit each refutation with the semantic checker
///     --dot-proof   emit the refutation as a Graphviz digraph
///     --dot-model   emit the countermodel heap as a Graphviz digraph
///     --query-stats print per-query prover counters and time
///     --backend=B   slp (default) | berdine | unfolding | portfolio
///                   (greedy is an alias for unfolding)
///     --fuel=N      inference step budget per query (default
///                   unlimited; for portfolio, per racing backend)
///     --jobs=N      worker count for verdict-only runs (default 0 =
///                   all cores); the output never depends on it
///     --cache=on|off
///                   the engine's memoizing entailment cache (default
///                   on); verdicts are identical either way
///     --stats       print the engine's run summary to stderr (batch,
///                   verdicts, cache, pre-solver, subsumption, pools,
///                   model-guided, phases, sessions, backends)
///     --no-presolve disable the polynomial static pre-solver, which
///                   otherwise runs ahead of every backend (also
///                   skipped when --proof/--check-proof/--dot-proof
///                   need the real saturation objects)
///     --trace=FILE  record phase spans (parse, prove, model
///                   attempts, portfolio races) as Chrome trace-event
///                   JSON — load in Perfetto or chrome://tracing
///     --metrics-json=FILE
///                   dump the metrics-registry snapshot as JSON on
///                   exit
///
/// Plain runs go through the batch engine. The render modes (--proof
/// through --query-stats) read the prover's objects, so they prove one
/// query at a time and reject the engine options --cache, --stats,
/// --metrics-json and any --jobs other than 1 (--trace still records
/// their spans). But they prove what the engine proves, the
/// canonical query (engine::CanonicalQuery), rebuilt under the source
/// names: verdicts, fuel and counters are the engine's.
///
//===----------------------------------------------------------------------===//

#include "CliUtil.h"

#include "analysis/StaticAnalyzer.h"
#include "core/Backend.h"
#include "core/Dot.h"
#include "core/ProofTree.h"
#include "core/ProverSession.h"
#include "engine/BatchProver.h"
#include "engine/CanonicalKey.h"
#include "engine/Portfolio.h"
#include "sl/Parser.h"
#include "superposition/ProofCheck.h"
#include "support/Timer.h"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace slp;

namespace {

struct CliOptions {
  bool Proof = false;
  bool Model = false;
  bool CheckProof = false;
  bool DotProof = false;
  bool DotModel = false;
  bool QueryStats = false;
  bool Stats = false;
  engine::BackendKind Backend = engine::BackendKind::Slp;
  uint64_t FuelSteps = 0; // 0 = unlimited.
  unsigned Jobs = 0;      // 0 = all cores.
  bool JobsGiven = false;
  bool Cache = true;
  bool CacheGiven = false;
  bool Presolve = true;
  cli::TelemetryOptions Telemetry;
  std::string File; // Empty = stdin.
};

int usage() {
  std::cerr << "usage: slp [--proof] [--model] [--check-proof] "
               "[--dot-proof] [--dot-model] [--query-stats] "
               "[--backend=slp|berdine|unfolding|portfolio] [--fuel=N] "
               "[--jobs=N] [--cache=on|off] [--stats] [--no-presolve] "
               "[--trace=FILE] [--metrics-json=FILE] [file]\n";
  return 2;
}

using cli::MaxJobs;
using cli::parseUnsigned;

/// Binds every constant of \p Query (interned in \p Source) that the
/// countermodel \p Cex, rendered as sl::str renders one, leaves
/// unbound: each gets a fresh location of its own, appended to the
/// stack in order of first mention. The canonical form drops atoms such
/// as x = x and lseg(x, x), which hold whatever x is, so a constant
/// that occurs only in them is missing from the prover's model, and
/// any location makes the model a countermodel of the whole query.
std::string bindDroppedConstants(std::string Cex, const TermTable &Source,
                                 const sl::Entailment &Query) {
  const std::string Prefix = "stack:";
  const size_t StackEnd = Cex.find(';');
  if (Cex.rfind(Prefix, 0) != 0 || StackEnd == std::string::npos)
    return Cex;
  std::vector<std::string> Bound;
  unsigned long MaxLoc = 0;
  std::istringstream Stack(Cex.substr(Prefix.size(), StackEnd - Prefix.size()));
  for (std::string Tok; Stack >> Tok;) {
    const size_t Eq = Tok.rfind('=');
    Bound.push_back(Tok.substr(0, Eq));
    MaxLoc = std::max(MaxLoc, std::stoul(Tok.substr(Eq + 1)));
  }
  std::istringstream Heap(Cex.substr(Cex.find(':', StackEnd) + 1));
  for (std::string Tok; Heap >> Tok;)
    if (const size_t Arrow = Tok.find("->"); Arrow != std::string::npos)
      MaxLoc = std::max({MaxLoc, std::stoul(Tok.substr(0, Arrow)),
                         std::stoul(Tok.substr(Arrow + 2))});
  std::vector<Symbol> Constants;
  Query.collectTerms(Constants);
  std::string Fresh;
  for (Symbol C : Constants) {
    const std::string Name = Source.str(C);
    if (C.isNil() || std::find(Bound.begin(), Bound.end(), Name) != Bound.end())
      continue;
    Fresh += " " + Name + "=" + std::to_string(++MaxLoc);
  }
  return Cex.insert(StackEnd, Fresh);
}

} // namespace

int main(int argc, char **argv) {
  CliOptions Opts;
  bool HaveFile = false;
  for (int I = 1; I != argc; ++I) {
    std::string Arg = argv[I];
    uint64_t N = 0;
    if (Arg == "--proof")
      Opts.Proof = true;
    else if (Arg == "--model")
      Opts.Model = true;
    else if (Arg == "--check-proof")
      Opts.CheckProof = true;
    else if (Arg == "--dot-proof")
      Opts.DotProof = true;
    else if (Arg == "--dot-model")
      Opts.DotModel = true;
    else if (Arg == "--query-stats")
      Opts.QueryStats = true;
    else if (Arg == "--stats")
      Opts.Stats = true;
    else if (Arg == "--no-presolve")
      Opts.Presolve = false;
    else if (Arg == "--cache=on" || Arg == "--cache=off") {
      Opts.Cache = Arg == "--cache=on";
      Opts.CacheGiven = true;
    } else if (Arg.rfind("--backend=", 0) == 0) {
      if (!cli::parseBackendOpt("slp", Arg.substr(10), Opts.Backend))
        return usage();
    } else if (Arg.rfind("--fuel=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(7), N)) {
        std::cerr << "slp: bad value in '" << Arg << "'\n";
        return usage();
      }
      Opts.FuelSteps = N;
    } else if (Arg.rfind("--jobs=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(7), N) || N > MaxJobs) {
        std::cerr << "slp: bad value in '" << Arg << "' (0-" << MaxJobs
                  << ")\n";
        return usage();
      }
      Opts.Jobs = static_cast<unsigned>(N);
      Opts.JobsGiven = true;
    } else if (cli::parseTelemetryOpt("slp", Arg, Opts.Telemetry)) {
      if (!Opts.Telemetry.Ok)
        return usage();
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::cerr << "slp: unknown option '" << Arg << "'\n";
      return usage();
    } else if (HaveFile) {
      std::cerr << "slp: more than one input file\n";
      return usage();
    } else {
      Opts.File = Arg;
      HaveFile = true;
    }
  }
  // The render modes read the prover's objects, so they run in
  // process; every other run goes through the batch engine, and only
  // those runs take the engine's options.
  bool Render = Opts.Proof || Opts.Model || Opts.CheckProof ||
                Opts.DotProof || Opts.DotModel || Opts.QueryStats;
  if (Render && ((Opts.JobsGiven && Opts.Jobs != 1) || Opts.CacheGiven ||
                 Opts.Stats)) {
    std::cerr << "slp: --jobs/--cache/--stats support plain verdict output "
                 "only (no --proof/--model/--check-proof/--dot-*/"
                 "--query-stats)\n";
    return usage();
  }
  // Only the engine publishes metrics, so a render run's snapshot would
  // be empty.
  if (Render && !Opts.Telemetry.MetricsJsonPath.empty()) {
    std::cerr << "slp: --metrics-json supports plain verdict output only "
                 "(--trace works in every mode)\n";
    return usage();
  }
  bool IsSlp = Opts.Backend == engine::BackendKind::Slp;
  bool IsPortfolio = Opts.Backend == engine::BackendKind::Portfolio;
  if (!IsSlp && (Opts.Proof || Opts.CheckProof || Opts.DotProof ||
                 Opts.DotModel || (Opts.Model && !IsPortfolio))) {
    std::cerr << "slp: --proof/--check-proof/--dot-* need --backend=slp "
                 "(--model also works with --backend=portfolio)\n";
    return usage();
  }

  std::string Input;
  if (Opts.File.empty()) {
    std::ostringstream SS;
    SS << std::cin.rdbuf();
    Input = SS.str();
  } else {
    std::ifstream In(Opts.File);
    if (!In) {
      std::cerr << "error: cannot open " << Opts.File << "\n";
      return 1;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    Input = SS.str();
  }

  cli::startTelemetry(Opts.Telemetry);

  // Each line is parsed on its own into a rewound table, as the
  // engine's workers parse it, so nothing about a query depends on the
  // lines around it. The echo renders from this parse.
  SymbolTable Symbols;
  TermTable Source(Symbols);
  const TermTable::Mark Baseline = Source.mark();
  std::vector<unsigned> LineNos;
  std::vector<std::string> Queries =
      engine::BatchProver::splitCorpus(Input, &LineNos);
  auto Parse = [&](size_t I) {
    obs::TraceSpan Span("parse");
    Source.reset(Baseline);
    return sl::parseEntailment(Source, Queries[I]);
  };

  int Exit = 0;
  // Echoes query I with its verdict text; an unparsable line echoes
  // raw, with its diagnostic anchored to the corpus line.
  auto Print = [&](size_t I, sl::ParseResult &P,
                   const std::string &VerdictText) {
    std::cout << "[" << (I + 1) << "] "
              << (P.ok() ? sl::str(Source, *P.Value) : Queries[I])
              << "\n    " << VerdictText;
    if (!P.ok()) {
      P.Error->Line = LineNos[I];
      std::cout << ": " << P.Error->render();
      Exit = 1;
    }
  };

  if (!Render) {
    engine::BatchOptions EngineOpts;
    EngineOpts.Jobs = Opts.Jobs;
    EngineOpts.FuelPerQuery = Opts.FuelSteps;
    EngineOpts.Backend = Opts.Backend;
    EngineOpts.Presolve = Opts.Presolve;
    EngineOpts.CacheEnabled = Opts.Cache;
    engine::BatchProver Engine(EngineOpts);
    std::vector<engine::QueryResult> Results = Engine.run(Queries);
    // The workers parse the same lines with the same parser, so a
    // parse error is exactly a line that Parse rejects.
    for (size_t I = 0; I != Results.size(); ++I) {
      sl::ParseResult P = Parse(I);
      Print(I, P, Results[I].verdictText());
      std::cout << "\n";
    }
    if (Opts.Stats)
      cli::printBatchStats(Engine);
    if (!cli::finishTelemetry("slp", Opts.Telemetry))
      return Exit ? Exit : 1;
    return Exit;
  }

  // The session the canonical queries are rebuilt and proved in.
  core::ProverSession Session;
  TermTable &Terms = Session.terms();
  core::SlpProver &Slp = Session.prover();
  std::unique_ptr<core::EntailmentBackend> Backend;
  if (!IsSlp)
    Backend = engine::makeBackend(Opts.Backend);
  // The proof renderers need the real saturation objects, so any of
  // them disables the pre-solver.
  bool Presolve =
      Opts.Presolve && !Opts.Proof && !Opts.CheckProof && !Opts.DotProof;

  for (size_t I = 0; I != Queries.size(); ++I) {
    sl::ParseResult P = Parse(I);
    if (!P.ok()) {
      Print(I, P, "parse-error");
      std::cout << "\n";
      continue;
    }
    Fuel F = Opts.FuelSteps ? Fuel(Opts.FuelSteps) : Fuel();
    Timer T;
    std::string VerdictText;
    // Span the per-query work, closed before the query is echoed so
    // stdout flushing does not inflate the prove phase.
    obs::TraceRecorder &Recorder = obs::TraceRecorder::global();
    uint64_t SpanStart = Recorder.enabled() ? Recorder.nowNs() : 0;
    // The pre-solver runs ahead of every backend, as in the engine.
    analysis::AnalysisResult Pre;
    if (Presolve)
      Pre = analysis::analyze(Source, *P.Value);
    // Otherwise prove the engine's canonical query, with the engine's
    // symbol ids, and so its term order, under the source names.
    sl::Entailment E;
    if (!Pre.definitive()) {
      Session.reset();
      E = engine::CanonicalQuery::of(*P.Value).rebuild(Terms, &Source);
    }
    if (Pre.definitive()) {
      // Statically proved Valid: the analyzer is sound, so the verdict
      // is the one the backend would reach, and there is no
      // countermodel to render.
      VerdictText = core::verdictName(Pre.V);
      if (IsPortfolio)
        VerdictText += " [presolve]";
      if (Opts.QueryStats)
        VerdictText += std::string("\n  stats: presolved (") +
                       analysis::reasonName(Pre.R) + ")";
    } else if (Backend) {
      // The baselines and the portfolio (each member budgeted by
      // --fuel via F); a portfolio reports which member won.
      core::ProofTask Task{sl::str(Terms, E), "", 0};
      core::BackendResult R = Backend->prove(Task, F);
      VerdictText = core::verdictName(R.V);
      if (IsPortfolio && !R.Backend.empty())
        VerdictText += " [" + R.Backend + "]";
      if (Opts.Model && !R.CexText.empty())
        VerdictText += "\n  countermodel: " +
                       bindDroppedConstants(R.CexText, Source, *P.Value);
    } else {
      core::ProveResult R = Slp.prove(E, F);
      VerdictText = core::verdictName(R.V);
      if (Opts.Model && R.Cex)
        VerdictText += "\n  countermodel: " +
                       bindDroppedConstants(sl::str(Terms, R.Cex->S, R.Cex->H),
                                            Source, *P.Value);
      if (Opts.Proof && R.V == core::Verdict::Valid)
        VerdictText +=
            "\n" + core::renderRefutation(Slp.saturation(), Slp.inputLabels());
      if (Opts.CheckProof && R.V == core::Verdict::Valid) {
        sup::ProofCheckResult PC = sup::checkRefutation(Slp.saturation());
        VerdictText += "\n  proof audit: ";
        VerdictText += PC.Ok ? "ok" : ("FAILED: " + PC.Error);
        VerdictText += " (" + std::to_string(PC.StepsChecked) + " checked, " +
                       std::to_string(PC.StepsSkipped) + " skipped)";
      }
      if (Opts.DotProof && R.V == core::Verdict::Valid)
        VerdictText += "\n" + core::proofToDot(Slp.saturation(),
                                               Slp.inputLabels(),
                                               Slp.saturation().emptyClauseId());
      if (Opts.DotModel && R.Cex)
        VerdictText += "\n" + core::counterModelToDot(Terms, R.Cex->S,
                                                      R.Cex->H);
      if (Opts.QueryStats)
        VerdictText += "\n  stats: outer=" +
                       std::to_string(R.Stats.OuterIterations) +
                       " inner=" + std::to_string(R.Stats.InnerIterations) +
                       " clauses=" + std::to_string(R.Stats.PureClauses) +
                       " fuel=" + std::to_string(R.Stats.FuelUsed) +
                       "\n  subsumption: fwd=" +
                       std::to_string(R.Stats.Sat.SubsumedFwd) +
                       " bwd=" + std::to_string(R.Stats.Sat.SubsumedBwd) +
                       " checks=" + std::to_string(R.Stats.Sat.SubChecks) +
                       " scan-equivalent=" +
                       std::to_string(R.Stats.Sat.SubScanBaseline) +
                       "\n  model-guided: attempts=" +
                       std::to_string(R.Stats.Sat.ModelAttempts) +
                       " replay-skipped=" +
                       std::to_string(R.Stats.Sat.GenReplayedFrom) +
                       " cert-skipped=" +
                       std::to_string(R.Stats.Sat.CertSkipped) +
                       " nf-cache-reuse=" +
                       std::to_string(R.Stats.Sat.NfCacheReuse);
    }
    if (Recorder.enabled())
      Recorder.complete("prove", SpanStart, Recorder.nowNs() - SpanStart);
    Print(I, P, VerdictText);
    if (Opts.QueryStats)
      std::cout << "\n    time: " << T.seconds() << "s";
    std::cout << "\n";
  }
  if (!cli::finishTelemetry("slp", Opts.Telemetry))
    return Exit ? Exit : 1;
  return Exit;
}
