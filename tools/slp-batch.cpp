//===- tools/slp-batch.cpp - Concurrent batch entailment checker --------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `slp-batch` command line tool: proves a corpus of entailments
/// (one per line) through the concurrent batch engine.
///
///   slp-batch [options] [file]
///     --jobs=N        worker threads (default and 0: all cores).
///                     Verdict output is byte-identical for any value
///     --backend=B     slp (default) | berdine | unfolding | portfolio;
///                     portfolio races all three per query and takes
///                     the first definitive verdict
///     --cache=on|off  memoizing entailment cache (default on)
///     --fuel=N        inference step budget per query (default
///                     unlimited; for portfolio, per racing backend)
///     --no-presolve   disable the polynomial static pre-solver that
///                     runs ahead of the cache lookup (verdicts are
///                     identical; for measurement)
///     --stats         print batch statistics to stderr, including the
///                     saturation subsumption counters (clauses deleted
///                     forward/backward, candidate checks vs. the
///                     full-scan equivalent), the model-guided
///                     saturation counters (attempts, Gen positions
///                     replay-skipped, certification checks skipped,
///                     normal-form memo reuses), the per-phase wall
///                     clock (parse / prove / cache / cache wait), the
///                     worker-session reuse counters (rewinds, terms
///                     and arena bytes reclaimed, slabs recycled), and
///                     the per-backend win/loss/time breakdown
///     --trace=FILE    record per-query phase spans (parse,
///                     canonicalize, cache-lookup, cache-wait, prove,
///                     model attempts, portfolio races) as Chrome
///                     trace-event JSON — load in Perfetto or
///                     chrome://tracing
///     --metrics-json=FILE
///                     dump the metrics-registry snapshot (counters,
///                     gauges, latency histograms with p50/p90/p99)
///                     as JSON on exit
///
/// Verdicts go to stdout in input order, one `[i] query / verdict`
/// block per query — byte-identical for any --jobs value and
/// unchanged by --trace/--metrics-json. Statistics go to stderr so
/// stdout stays comparable across runs.
///
//===----------------------------------------------------------------------===//

#include "CliUtil.h"

#include "engine/BatchProver.h"
#include "sl/Parser.h"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

using namespace slp;

namespace {

int usage() {
  std::cerr << "usage: slp-batch [--jobs=N] "
               "[--backend=slp|berdine|unfolding|portfolio] "
               "[--cache=on|off] [--fuel=N] [--stats] [--no-presolve] "
               "[--trace=FILE] [--metrics-json=FILE] [file]\n";
  return 2;
}

using cli::MaxJobs;
using cli::parseUnsigned;

} // namespace

int main(int argc, char **argv) {
  engine::BatchOptions Opts;
  Opts.Jobs = 0; // Unspecified --jobs means all cores.
  bool Stats = false;
  cli::TelemetryOptions Telemetry;
  std::string File;
  bool HaveFile = false;

  for (int I = 1; I != argc; ++I) {
    std::string Arg = argv[I];
    uint64_t N = 0;
    if (Arg.rfind("--jobs=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(7), N) || N > MaxJobs) {
        std::cerr << "slp-batch: bad value in '" << Arg << "' (0-"
                  << MaxJobs << ")\n";
        return usage();
      }
      Opts.Jobs = static_cast<unsigned>(N);
    } else if (Arg.rfind("--backend=", 0) == 0) {
      if (!cli::parseBackendOpt("slp-batch", Arg.substr(10), Opts.Backend))
        return usage();
    } else if (Arg == "--cache=on") {
      Opts.CacheEnabled = true;
    } else if (Arg == "--cache=off") {
      Opts.CacheEnabled = false;
    } else if (Arg.rfind("--fuel=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(7), N)) {
        std::cerr << "slp-batch: bad value in '" << Arg << "'\n";
        return usage();
      }
      Opts.FuelPerQuery = N;
    } else if (Arg == "--stats") {
      Stats = true;
    } else if (Arg == "--no-presolve") {
      Opts.Presolve = false;
    } else if (cli::parseTelemetryOpt("slp-batch", Arg, Telemetry)) {
      if (!Telemetry.Ok)
        return usage();
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::cerr << "slp-batch: unknown option '" << Arg << "'\n";
      return usage();
    } else if (HaveFile) {
      std::cerr << "slp-batch: more than one input file\n";
      return usage();
    } else {
      File = Arg;
      HaveFile = true;
    }
  }

  std::string Input;
  if (!HaveFile) {
    std::ostringstream SS;
    SS << std::cin.rdbuf();
    Input = SS.str();
  } else {
    std::ifstream In(File);
    if (!In) {
      std::cerr << "error: cannot open " << File << "\n";
      return 1;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    Input = SS.str();
  }

  std::vector<unsigned> LineNos;
  std::vector<std::string> Queries =
      engine::BatchProver::splitCorpus(Input, &LineNos);
  cli::startTelemetry(Telemetry);
  engine::BatchProver Engine(Opts);
  std::vector<engine::QueryResult> Results = Engine.run(Queries);

  int Exit = 0;
  for (size_t I = 0; I != Results.size(); ++I) {
    std::cout << "[" << (I + 1) << "] " << Queries[I] << "\n    "
              << Results[I].verdictText();
    if (Results[I].Status == engine::QueryStatus::ParseError) {
      // Workers parse each line standalone, so their diagnostics say
      // line 1; re-parse to re-anchor the error to the corpus line.
      SymbolTable ErrSyms;
      TermTable ErrTerms(ErrSyms);
      sl::ParseResult P = sl::parseEntailment(ErrTerms, Queries[I]);
      if (!P.ok()) {
        P.Error->Line = LineNos[I];
        std::cout << ": " << P.Error->render();
      } else {
        std::cout << ": " << Results[I].Error;
      }
      Exit = 1;
    }
    std::cout << "\n";
  }

  if (Stats) {
    const engine::BatchStats &S = Engine.stats();
    engine::CacheStats C = Engine.cache().stats();
    std::fprintf(stderr,
                 "batch: %zu queries in %.3fs (%.1f q/s, %u workers; "
                 "%llu steals, %llu attempts)\n"
                 "verdicts: %zu valid, %zu invalid, %zu unknown, "
                 "%zu parse errors\n"
                 "cache: %s, hit rate %.1f%% (%llu hits, %llu misses, "
                 "%zu entries, %llu evictions)\n",
                 S.Queries, S.Seconds, S.throughput(), S.WorkersUsed,
                 static_cast<unsigned long long>(S.Steals),
                 static_cast<unsigned long long>(S.StealAttempts), S.Valid,
                 S.Invalid, S.Unknown, S.ParseErrors,
                 Opts.CacheEnabled ? "on" : "off", 100.0 * S.hitRate(),
                 static_cast<unsigned long long>(S.CacheHits),
                 static_cast<unsigned long long>(S.CacheMisses), C.Entries,
                 static_cast<unsigned long long>(C.Evictions));
    if (Opts.Presolve) {
      size_t Decided = S.PresolvedValid + S.PresolvedInvalid;
      size_t Parsed = S.Queries - S.ParseErrors;
      std::fprintf(stderr,
                   "presolve: %zu of %zu decided statically (%.1f%%: "
                   "%zu valid, %zu invalid) in %.3fs\n",
                   Decided, Parsed,
                   Parsed ? 100.0 * Decided / Parsed : 0.0,
                   S.PresolvedValid, S.PresolvedInvalid,
                   S.PresolveSeconds);
    }
    const sup::SaturationStats &Sat = S.Sat;
    double Prune =
        Sat.SubChecks ? static_cast<double>(Sat.SubScanBaseline) / Sat.SubChecks
                      : 0.0;
    std::fprintf(stderr,
                 "subsumption: %llu fwd, %llu bwd, %llu checks of "
                 "%llu scan-equivalent (%.1fx pruned)\n",
                 static_cast<unsigned long long>(Sat.SubsumedFwd),
                 static_cast<unsigned long long>(Sat.SubsumedBwd),
                 static_cast<unsigned long long>(Sat.SubChecks),
                 static_cast<unsigned long long>(Sat.SubScanBaseline), Prune);
    uint64_t MemoTotal = Sat.OrderCacheHits + Sat.OrderCacheMisses;
    std::fprintf(stderr,
                 "pools: %llu equations, %llu literals; order memo "
                 "%llu hits / %llu misses (%.1f%%)\n",
                 static_cast<unsigned long long>(Sat.PoolEquations),
                 static_cast<unsigned long long>(Sat.PoolLiterals),
                 static_cast<unsigned long long>(Sat.OrderCacheHits),
                 static_cast<unsigned long long>(Sat.OrderCacheMisses),
                 MemoTotal ? 100.0 * Sat.OrderCacheHits / MemoTotal : 0.0);
    obs::MetricsSnapshot Snap = obs::metrics().snapshot();
    cli::printModelGuidedStats(Snap);
    cli::printEngineReuseStats(Snap);
    cli::printBackendStats(Snap);
  }
  if (!cli::finishTelemetry("slp-batch", Telemetry))
    return Exit ? Exit : 1;
  return Exit;
}
