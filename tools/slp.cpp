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
///     --stats       print per-query statistics
///     --backend=B   slp (default) | berdine | unfolding | portfolio
///                   (greedy is an alias for unfolding)
///     --fuel=N      inference step budget per query (default
///                   unlimited; for portfolio, per racing backend)
///     --jobs=N      prove queries concurrently through the batch
///                   engine (verdicts only; 0 = all cores). When
///                   unspecified, plain verdict runs default to all
///                   cores; the proof/model/stats output modes need
///                   the in-process saturation objects and fall back
///                   to the sequential single-worker path. Unlike the
///                   sequential path, which stops at the first bad
///                   line, the engine path reports parse errors per
///                   query on stdout, like slp-batch
///     --no-presolve disable the polynomial static pre-solver
///                   (verdicts are identical; for measurement). The
///                   sequential path also skips it automatically when
///                   --proof/--check-proof/--dot-proof need the real
///                   saturation objects
///     --trace=FILE  record phase spans (parse, prove, model
///                   attempts, portfolio races) as Chrome trace-event
///                   JSON — load in Perfetto or chrome://tracing
///     --metrics-json=FILE
///                   dump the metrics-registry snapshot as JSON on
///                   exit
///
//===----------------------------------------------------------------------===//

#include "CliUtil.h"

#include "analysis/StaticAnalyzer.h"
#include "baselines/BerdineProver.h"
#include "baselines/UnfoldingProver.h"
#include "core/Backend.h"
#include "core/Dot.h"
#include "core/ProofTree.h"
#include "core/Prover.h"
#include "engine/BatchProver.h"
#include "engine/Portfolio.h"
#include "sl/Parser.h"
#include "superposition/ProofCheck.h"
#include "support/Timer.h"

#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

using namespace slp;

namespace {

struct CliOptions {
  bool Proof = false;
  bool Model = false;
  bool CheckProof = false;
  bool DotProof = false;
  bool DotModel = false;
  bool Stats = false;
  engine::BackendKind Backend = engine::BackendKind::Slp;
  uint64_t FuelSteps = 0;  // 0 = unlimited.
  unsigned Jobs = 1;       // > 1 or 0 routes through the batch engine.
  bool JobsGiven = false;
  bool Presolve = true;
  cli::TelemetryOptions Telemetry;
  std::string File; // Empty = stdin.
};

int usage() {
  std::cerr << "usage: slp [--proof] [--model] [--check-proof] "
               "[--dot-proof] [--dot-model] [--stats] "
               "[--backend=slp|berdine|unfolding|portfolio] [--fuel=N] "
               "[--jobs=N] [--no-presolve] [--trace=FILE] "
               "[--metrics-json=FILE] [file]\n";
  return 2;
}

using cli::MaxJobs;
using cli::parseUnsigned;

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
    else if (Arg == "--stats")
      Opts.Stats = true;
    else if (Arg == "--no-presolve")
      Opts.Presolve = false;
    else if (Arg.rfind("--backend=", 0) == 0) {
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
  bool SequentialOnly = Opts.Proof || Opts.Model || Opts.CheckProof ||
                        Opts.DotProof || Opts.DotModel || Opts.Stats;
  bool UseEngine;
  if (Opts.JobsGiven) {
    UseEngine = Opts.Jobs != 1;
    if (UseEngine && SequentialOnly) {
      std::cerr << "slp: --jobs supports plain verdict output only "
                   "(no --proof/--model/--check-proof/--dot-*/--stats)\n";
      return usage();
    }
  } else {
    // Unspecified --jobs: plain verdict runs use every core through
    // the batch engine (verdicts are byte-identical to sequential);
    // the rendering modes stay on the sequential path they require.
    UseEngine = !SequentialOnly;
    Opts.Jobs = 0;
  }
  bool IsSlp = Opts.Backend == engine::BackendKind::Slp;
  bool IsPortfolio = Opts.Backend == engine::BackendKind::Portfolio;
  if (!UseEngine && !IsSlp &&
      (Opts.Proof || Opts.CheckProof || Opts.DotProof || Opts.DotModel ||
       (Opts.Model && !IsPortfolio))) {
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

  SymbolTable Symbols;
  TermTable Terms(Symbols);

  if (UseEngine) {
    // No up-front whole-file parse here: the workers parse each line
    // themselves, and a bad line is reported per-query like slp-batch
    // does, so the parallel path skips a redundant sequential pass
    // over the corpus.
    engine::BatchOptions EngineOpts;
    EngineOpts.Jobs = Opts.Jobs;
    EngineOpts.FuelPerQuery = Opts.FuelSteps;
    EngineOpts.Backend = Opts.Backend;
    EngineOpts.Presolve = Opts.Presolve;
    engine::BatchProver Engine(EngineOpts);
    std::vector<unsigned> LineNos;
    std::vector<std::string> Queries =
        engine::BatchProver::splitCorpus(Input, &LineNos);
    std::vector<engine::QueryResult> Results = Engine.run(Queries);
    int Exit = 0;
    for (size_t I = 0; I != Results.size(); ++I) {
      // Echo each query rendered from its own line; fall back to the
      // raw text if the line does not parse.
      sl::ParseResult Line = sl::parseEntailment(Terms, Queries[I]);
      std::cout << "[" << (I + 1) << "] "
                << (Line.ok() ? sl::str(Terms, *Line.Value) : Queries[I])
                << "\n    " << Results[I].verdictText();
      if (Results[I].Status == engine::QueryStatus::ParseError) {
        // Workers parse each line standalone, so their diagnostics
        // say line 1; re-anchor to the corpus line.
        if (!Line.ok()) {
          Line.Error->Line = LineNos[I];
          std::cout << ": " << Line.Error->render();
        } else {
          std::cout << ": " << Results[I].Error;
        }
        Exit = 1;
      }
      std::cout << "\n";
    }
    if (!cli::finishTelemetry("slp", Opts.Telemetry))
      return Exit ? Exit : 1;
    return Exit;
  }

  sl::FileParseResult Parsed = [&] {
    obs::TraceSpan Span("parse");
    return sl::parseEntailmentFile(Terms, Input);
  }();
  if (!Parsed.ok()) {
    std::cerr << (Opts.File.empty() ? "<stdin>" : Opts.File) << ":"
              << Parsed.Error->render() << "\n";
    return 1;
  }

  core::SlpProver Slp(Terms);
  baselines::BerdineProver Berdine(Terms);
  baselines::UnfoldingProver Greedy(Terms);
  std::unique_ptr<engine::PortfolioProver> Portfolio;
  if (IsPortfolio)
    Portfolio = std::make_unique<engine::PortfolioProver>();

  unsigned Index = 0;
  for (const sl::Entailment &E : Parsed.Entailments) {
    ++Index;
    Fuel F = Opts.FuelSteps ? Fuel(Opts.FuelSteps) : Fuel();
    Timer T;
    std::string VerdictText;
    // Span the per-query work, closed before the query is echoed so
    // stdout flushing does not inflate the prove phase.
    obs::TraceRecorder &Recorder = obs::TraceRecorder::global();
    uint64_t SpanStart = Recorder.enabled() ? Recorder.nowNs() : 0;
    if (Opts.Backend == engine::BackendKind::Berdine) {
      VerdictText = baselineVerdictName(Berdine.prove(E, F));
    } else if (Opts.Backend == engine::BackendKind::Unfolding) {
      VerdictText = Greedy.prove(E, F) == baselines::GreedyVerdict::Valid
                        ? "valid"
                        : "not-proved";
    } else if (IsPortfolio) {
      // Race the full backend set (each member budgeted by --fuel via
      // F); report which member won.
      core::ProofTask Task{sl::str(Terms, E), "", 0};
      core::BackendResult R = Portfolio->prove(Task, F);
      VerdictText = core::verdictName(R.V);
      if (!R.Backend.empty())
        VerdictText += " [" + R.Backend + "]";
      if (Opts.Model && !R.CexText.empty())
        VerdictText += "\n  countermodel: " + R.CexText;
    } else if (std::optional<analysis::AnalysisResult> Pre =
                   [&]() -> std::optional<analysis::AnalysisResult> {
                 // The proof renderers need the real saturation
                 // objects, so any of them disables the pre-solver.
                 if (!Opts.Presolve || Opts.Proof || Opts.CheckProof ||
                     Opts.DotProof)
                   return std::nullopt;
                 analysis::AnalysisResult A = analysis::analyze(Terms, E);
                 if (!A.definitive())
                   return std::nullopt;
                 return A;
               }()) {
      // Statically decided: identical verdict text to the prover path
      // (the analyzer is sound), so --no-presolve output is
      // byte-identical modulo --stats timings.
      VerdictText = core::verdictName(Pre->V);
      if (Opts.Model && Pre->Cex)
        VerdictText += "\n  countermodel: " +
                       sl::str(Terms, Pre->Cex->S, Pre->Cex->H);
      if (Opts.DotModel && Pre->Cex)
        VerdictText += "\n" + core::counterModelToDot(Terms, Pre->Cex->S,
                                                      Pre->Cex->H);
      if (Opts.Stats)
        VerdictText += std::string("\n  stats: presolved (") +
                       analysis::reasonName(Pre->R) + ")";
    } else {
      core::ProveResult R = Slp.prove(E, F);
      VerdictText = core::verdictName(R.V);
      if (Opts.Model && R.Cex)
        VerdictText += "\n  countermodel: " +
                       sl::str(Terms, R.Cex->S, R.Cex->H);
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
      if (Opts.Stats)
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
    std::cout << "[" << Index << "] " << sl::str(Terms, E) << "\n    "
              << VerdictText;
    if (Opts.Stats)
      std::cout << "\n    time: " << T.seconds() << "s";
    std::cout << "\n";
  }
  if (IsPortfolio && Opts.Stats) {
    engine::publishBackendTallies(Portfolio->tallies());
    cli::printBackendStats(obs::metrics().snapshot());
  }
  if (!cli::finishTelemetry("slp", Opts.Telemetry))
    return 1;
  return 0;
}
