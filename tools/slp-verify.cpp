//===- tools/slp-verify.cpp - Program verification front end ------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `slp-verify` command line tool: a miniature Smallfoot on top of
/// the batch engine. Symbolically executes the annotated
/// list-manipulating programs of the symexec corpus, renders every
/// verification condition as a ProofTask, and discharges all of them
/// concurrently through the engine with the shared result cache.
///
///   slp-verify [options]
///     --jobs=N        worker threads (default and 0: all cores).
///                     Verdict output is byte-identical for any value
///     --backend=B     slp (default) | berdine | unfolding | portfolio;
///                     portfolio races all three per VC and takes the
///                     first definitive verdict
///     --cache=on|off  memoizing entailment cache (default on)
///     --fuel=N        inference step budget per VC (default
///                     unlimited; for portfolio, per racing backend)
///     --program=NAME  verify only the named program
///     --list          list corpus programs and exit
///     --vcs           also print one line per VC with its verdict
///     --stats         print the engine's run summary to stderr (the
///                     same block as `slp --stats`)
///     --no-presolve   disable the polynomial static pre-solver that
///                     runs ahead of the cache lookup (verdicts are
///                     identical; for measurement)
///     --trace=FILE    record per-VC phase spans as Chrome
///                     trace-event JSON (Perfetto / chrome://tracing)
///     --metrics-json=FILE
///                     dump the metrics-registry snapshot as JSON
///
/// Per-program summaries go to stdout (`name: K VCs, K valid`); the
/// exit status is 0 iff every VC was proved valid.
///
//===----------------------------------------------------------------------===//

#include "CliUtil.h"

#include "engine/BatchProver.h"
#include "engine/VcTasks.h"

#include <iostream>
#include <string>
#include <vector>

using namespace slp;

namespace {

int usage() {
  std::cerr << "usage: slp-verify [--jobs=N] "
               "[--backend=slp|berdine|unfolding|portfolio] "
               "[--cache=on|off] [--fuel=N] [--program=NAME] [--list] "
               "[--vcs] [--stats] [--no-presolve] [--trace=FILE] "
               "[--metrics-json=FILE]\n";
  return 2;
}

using cli::MaxJobs;
using cli::parseUnsigned;

} // namespace

int main(int argc, char **argv) {
  engine::BatchOptions Opts;
  Opts.Jobs = 0; // Unspecified --jobs means all cores.
  bool Stats = false;
  bool List = false;
  bool PerVc = false;
  cli::TelemetryOptions Telemetry;
  std::string Program;

  for (int I = 1; I != argc; ++I) {
    std::string Arg = argv[I];
    uint64_t N = 0;
    if (Arg.rfind("--jobs=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(7), N) || N > MaxJobs) {
        std::cerr << "slp-verify: bad value in '" << Arg << "' (0-"
                  << MaxJobs << ")\n";
        return usage();
      }
      Opts.Jobs = static_cast<unsigned>(N);
    } else if (Arg.rfind("--backend=", 0) == 0) {
      if (!cli::parseBackendOpt("slp-verify", Arg.substr(10), Opts.Backend))
        return usage();
    } else if (Arg == "--cache=on") {
      Opts.CacheEnabled = true;
    } else if (Arg == "--cache=off") {
      Opts.CacheEnabled = false;
    } else if (Arg.rfind("--fuel=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(7), N)) {
        std::cerr << "slp-verify: bad value in '" << Arg << "'\n";
        return usage();
      }
      Opts.FuelPerQuery = N;
    } else if (Arg.rfind("--program=", 0) == 0) {
      Program = Arg.substr(10);
    } else if (Arg == "--list") {
      List = true;
    } else if (Arg == "--vcs") {
      PerVc = true;
    } else if (Arg == "--stats") {
      Stats = true;
    } else if (Arg == "--no-presolve") {
      Opts.Presolve = false;
    } else if (cli::parseTelemetryOpt("slp-verify", Arg, Telemetry)) {
      if (!Telemetry.Ok)
        return usage();
    } else {
      std::cerr << "slp-verify: unknown option '" << Arg << "'\n";
      return usage();
    }
  }

  engine::VcTaskSet Vcs = engine::symexecVcTasks();
  if (!Vcs.ok()) {
    std::cerr << "slp-verify: symbolic execution failed: " << *Vcs.Error
              << "\n";
    return 1;
  }

  if (List) {
    for (uint32_t G = 0; G != Vcs.Programs.size(); ++G)
      std::cout << Vcs.Programs[G] << " (" << Vcs.numTasksFor(G)
                << " VCs)\n";
    return 0;
  }

  std::vector<engine::ProofTask> Tasks;
  if (Program.empty()) {
    Tasks = std::move(Vcs.Tasks);
  } else {
    uint32_t Group = ~0u;
    for (uint32_t G = 0; G != Vcs.Programs.size(); ++G)
      if (Vcs.Programs[G] == Program)
        Group = G;
    if (Group == ~0u) {
      std::cerr << "slp-verify: no program named '" << Program
                << "' (use --list)\n";
      return 2;
    }
    for (engine::ProofTask &T : Vcs.Tasks)
      if (T.Group == Group)
        Tasks.push_back(std::move(T));
  }

  cli::startTelemetry(Telemetry);
  engine::BatchProver Engine(Opts);
  std::vector<engine::QueryResult> Results = Engine.run(Tasks);

  // Re-bucket results by program and report in corpus order.
  size_t TotalVCs = Results.size(), Discharged = 0;
  for (uint32_t G = 0; G != Vcs.Programs.size(); ++G) {
    unsigned Vc = 0, Ok = 0;
    for (size_t I = 0; I != Tasks.size(); ++I) {
      if (Tasks[I].Group != G)
        continue;
      ++Vc;
      bool Valid = Results[I].Status == engine::QueryStatus::Ok &&
                   Results[I].V == core::Verdict::Valid;
      Ok += Valid;
      if (PerVc || !Valid)
        std::cout << "  [" << (Valid ? "ok" : "FAILED") << "] "
                  << Tasks[I].Name << " (" << Results[I].verdictText()
                  << ")\n";
    }
    if (Vc == 0)
      continue;
    Discharged += Ok;
    std::cout << Vcs.Programs[G] << ": " << Vc << " VCs, " << Ok
              << " valid\n";
  }
  std::cout << "total: " << TotalVCs << " VCs, " << Discharged
            << " discharged\n";

  if (Stats)
    cli::printBatchStats(Engine);
  if (!cli::finishTelemetry("slp-verify", Telemetry))
    return 1;
  return Discharged == TotalVCs ? 0 : 1;
}
