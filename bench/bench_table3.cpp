//===- bench/bench_table3.cpp - Reproduces Table 3 ----------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Table 3 of the paper: verification conditions generated by symbolic
/// execution of the 18 annotated list programs (the stand-in for the
/// Smallfoot example suite), amplified by the cloning technique of §6
/// (n variable-renamed copies, conjoined). Every VC is valid; the
/// greedy prover's miss count reproduces jStar's "fails to prove N
/// valid entailments" footnote.
///
/// With `--json[=path]` the run additionally writes a machine-readable
/// trajectory (per-row wall clock, solved counts, greedy misses, and
/// per-row SLP prove-latency p50/p99 from the metrics registry) to
/// BENCH_table3.json, which CI uploads as a perf-baseline artifact.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "gen/Cloning.h"
#include "symexec/Corpus.h"
#include "symexec/SymbolicExec.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

using namespace slp;
using namespace slp::bench;

int main(int argc, char **argv) {
  const unsigned MaxCopies =
      static_cast<unsigned>(envOr("SLP_BENCH_COPIES", 8));
  const uint64_t FuelBudget = envOr("SLP_BENCH_FUEL", 200000);

  std::string JsonPath;
  for (int I = 1; I != argc; ++I) {
    if (std::strcmp(argv[I], "--json") == 0) {
      JsonPath = "BENCH_table3.json";
    } else if (std::strncmp(argv[I], "--json=", 7) == 0) {
      JsonPath = argv[I] + 7;
    } else {
      std::fprintf(stderr, "usage: bench_table3 [--json[=path]]\n");
      return 2;
    }
  }
  std::unique_ptr<TrajectoryJson> Json;
  if (!JsonPath.empty()) {
    Json = std::make_unique<TrajectoryJson>(JsonPath, "table3");
    if (!Json->ok()) {
      std::fprintf(stderr, "error: cannot write %s\n", JsonPath.c_str());
      return 1;
    }
    Json->config("max_copies", MaxCopies);
    Json->config("fuel", FuelBudget);
  }

  SymbolTable Symbols;
  TermTable Terms(Symbols);

  // Generate the VC suite once.
  std::vector<sl::Entailment> VCs;
  for (const symexec::Program &P : symexec::corpus(Terms)) {
    symexec::VcGenResult R = symexec::generateVCs(Terms, P);
    if (!R.ok()) {
      std::fprintf(stderr, "symbolic execution failed: %s\n",
                   R.Error->c_str());
      return 1;
    }
    for (symexec::VC &V : R.VCs)
      VCs.push_back(std::move(V.E));
  }

  std::printf("Table 3: 'clones' of the %zu VCs from the 18-program corpus "
              "(fuel %llu/instance)\n\n",
              VCs.size(), static_cast<unsigned long long>(FuelBudget));
  std::printf("%6s | %14s %14s %14s %14s | %s\n", "Copies",
              "Greedy[jStar]", "Berdine[SF]", "SLP", "SLP-nopre",
              "Greedy misses");

  for (unsigned Copies = 1; Copies <= MaxCopies; ++Copies) {
    std::vector<sl::Entailment> Batch;
    Batch.reserve(VCs.size());
    for (const sl::Entailment &E : VCs)
      Batch.push_back(gen::cloneEntailment(Terms, E, Copies));

    BatchResult Slp = runSlp(Terms, Batch, FuelBudget);
    BatchResult Berdine = runBerdine(Terms, Batch, FuelBudget);
    BatchResult Greedy = runGreedy(Terms, Batch, FuelBudget);
    // The same SLP pass with the static pre-solver off: the column
    // pair shows what the pre-solver costs or saves per row.
    BatchResult SlpNoPre = runSlpNoPresolve(Terms, Batch, FuelBudget);

    // All VCs are valid; what the greedy prover fails to prove is its
    // incompleteness gap (cf. jStar's 59 of 209).
    std::printf("%6u | %14s %14s %14s %14s | %u of %zu\n", Copies,
                cell(Greedy).c_str(), cell(Berdine).c_str(),
                cell(Slp).c_str(), cell(SlpNoPre).c_str(),
                Greedy.Total - Greedy.Solved, Batch.size());
    std::fflush(stdout);

    if (Json) {
      Json->beginRow();
      Json->field("copies", static_cast<uint64_t>(Copies));
      Json->field("vcs", static_cast<uint64_t>(Batch.size()));
      Json->field("slp_seconds", Slp.Seconds);
      Json->field("slp_solved", static_cast<uint64_t>(Slp.Solved));
      Json->field("slp_presolved", Slp.Presolved);
      Json->field("slp_nopresolve_seconds", SlpNoPre.Seconds);
      Json->field("slp_prove_p50_ns", Slp.ProveP50Ns);
      Json->field("slp_prove_p99_ns", Slp.ProveP99Ns);
      Json->field("slp_cache_hits", Slp.CacheHits);
      Json->field("berdine_seconds", Berdine.Seconds);
      Json->field("berdine_solved", static_cast<uint64_t>(Berdine.Solved));
      Json->field("greedy_seconds", Greedy.Seconds);
      Json->field("greedy_solved", static_cast<uint64_t>(Greedy.Solved));
      Json->field("greedy_misses",
                  static_cast<uint64_t>(Greedy.Total - Greedy.Solved));
      Json->field("model_attempts", Slp.Sat.ModelAttempts);
      Json->field("nf_cache_reuse", Slp.Sat.NfCacheReuse);
      Json->endRow();
    }
  }
  if (Json)
    std::fprintf(stderr, "wrote %s\n", JsonPath.c_str());
  return 0;
}
